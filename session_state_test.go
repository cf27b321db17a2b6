package stopandstare

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

// sameSessionAnswer fails unless two results agree in every deterministic
// observable.
func sameSessionAnswer(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Seeds, want.Seeds) || got.Samples != want.Samples ||
		got.InfluenceEstimate != want.InfluenceEstimate {
		t.Fatalf("%s: %v/%d/%v differs from %v/%d/%v", ctx,
			got.Seeds, got.Samples, got.InfluenceEstimate,
			want.Seeds, want.Samples, want.InfluenceEstimate)
	}
}

// TestSessionDurability pins the session-level durability contract:
// Persist commits a snapshot, a rebuilt session with the same StateDir
// recovers the RR store — Stats reports the recovered sets and snapshot
// size — and every query on the recovered session, warm repeats and
// growing refinements alike, answers bit-identically to a session that
// never restarted.
func TestSessionDurability(t *testing.T) {
	g, err := GeneratePowerLaw(300, 1800, 2.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := SessionOptions{Seed: 21, Workers: 2, StateDir: dir}
	ref, err := NewSession(g, IC, SessionOptions{Seed: 21, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(g, IC, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Recovered != 0 || st.SnapshotBytes != 0 {
		t.Fatalf("cold durable session reports recovery: %+v", st)
	}
	q1 := Query{K: 6, Epsilon: 0.3}
	q2 := Query{K: 9, Epsilon: 0.25}
	for _, q := range []Query{q1, q2} {
		want, err := ref.Maximize(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Maximize(q)
		if err != nil {
			t.Fatal(err)
		}
		sameSessionAnswer(t, "pre-restart", got, want)
	}
	info, err := sess.Persist()
	if err != nil {
		t.Fatalf("persist: %v", err)
	}
	if info.Sets != sess.Stats().Samples || info.Bytes <= 0 {
		t.Fatalf("snapshot info %+v vs %d resident sets", info, sess.Stats().Samples)
	}
	if st := sess.Stats(); st.SnapshotBytes != info.Bytes {
		t.Fatalf("SnapshotBytes %d, want %d", st.SnapshotBytes, info.Bytes)
	}

	// "Restart": a fresh session over the same state dir recovers the
	// store instead of starting cold.
	sess2, err := NewSession(g, IC, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := sess2.Stats()
	if st.Recovered != info.Sets || st.SnapshotBytes != info.Bytes {
		t.Fatalf("recovered session stats %+v, want %d sets / %d bytes", st, info.Sets, info.Bytes)
	}
	// Warm repeat: served from recovered samples without growth.
	want, err := ref.Maximize(q2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess2.Maximize(q2)
	if err != nil {
		t.Fatal(err)
	}
	sameSessionAnswer(t, "post-restart warm repeat", got, want)
	if !got.Warm {
		t.Fatal("recovered repeat was not warm")
	}
	// Growing refinement: the recovered prefix extends bit-identically.
	q3 := Query{K: 9, Epsilon: 0.15}
	if want, err = ref.Maximize(q3); err != nil {
		t.Fatal(err)
	}
	if got, err = sess2.Maximize(q3); err != nil {
		t.Fatal(err)
	}
	sameSessionAnswer(t, "post-restart refinement", got, want)

	// A mismatched topology must not recover someone else's stream: a
	// different seed over the same dir starts cold.
	other, err := NewSession(g, IC, SessionOptions{Seed: 99, Workers: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := other.Stats(); st.Recovered != 0 {
		t.Fatalf("mismatched seed recovered %d sets", st.Recovered)
	}
}

// copyStateDir copies a committed snapshot state directory (manifest and
// snapshot files) into a fresh directory, so a test may recover or persist
// over it without touching the checked-in fixture.
func copyStateDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRecoveredSessionCompilesNothing: the plan compile, and with it the
// reverse sections' content check, stays lazy. A restarted session that
// recovers its store answers a D-SSA query the store covers without
// compiling a plan, so its first answer pays for no compile.
func TestRecoveredSessionCompilesNothing(t *testing.T) {
	build := func() *Graph { // a new graph value per process, as after a restart
		g, err := GeneratePowerLaw(300, 1800, 2.1, 7)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	opt := SessionOptions{Seed: 21, Workers: 2, StateDir: t.TempDir()}
	q := Query{K: 6, Epsilon: 0.3}
	sess, err := NewSession(build(), IC, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Maximize(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Persist(); err != nil {
		t.Fatal(err)
	}
	restarted, err := NewSession(build(), IC, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restarted.Maximize(q)
	if err != nil {
		t.Fatal(err)
	}
	sameSessionAnswer(t, "recovered", got, want)
	if !got.Warm || restarted.Stats().Recovered == 0 {
		t.Fatalf("the query was not answered from the recovered store: warm %v, %+v", got.Warm, restarted.Stats())
	}
	if n := restarted.sampler.PlanBytes(); n != 0 {
		t.Fatalf("a warm query on a recovered session compiled a %d-byte plan", n)
	}
}

// TestSessionMultiShardStateStartsCold pins what an old state directory
// does to a session: the checked-in 3-shard v1 snapshot, what a sharded
// durable session or imserve -shards 3 -state-dir of an earlier build left
// behind, is a topology mismatch. The session recovers nothing and answers
// bit-identically to a fresh one. The one-shard fixture of the same store
// recovers, so the graph, model and seed do match and only the topology
// sends the 3-shard directory cold.
func TestSessionMultiShardStateStartsCold(t *testing.T) {
	// internal/ris's formatPinSampler graph and formatPinSeed.
	g, err := gen.ChungLu(40, 160, 2.1, 3, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 2016
	fixtures := filepath.Join("internal", "ris", "testdata")

	one, err := NewSession(g, IC, SessionOptions{Seed: seed, Workers: 2, StateDir: copyStateDir(t, filepath.Join(fixtures, "snapshot-v1-1shard"))})
	if err != nil {
		t.Fatal(err)
	}
	if st := one.Stats(); st.Recovered == 0 {
		t.Fatal("session over the one-shard fixture recovered nothing")
	}

	dir := copyStateDir(t, filepath.Join(fixtures, "snapshot-v1"))
	sess, err := NewSession(g, IC, SessionOptions{Seed: seed, Workers: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Recovered != 0 || st.Samples != 0 {
		t.Fatalf("session over a 3-shard snapshot recovered %d sets (%d resident), want a cold start",
			st.Recovered, st.Samples)
	}
	fresh, err := NewSession(g, IC, SessionOptions{Seed: seed, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{{K: 6, Epsilon: 0.3}, {Algorithm: SSA, K: 9, Epsilon: 0.25}} {
		want, err := fresh.Maximize(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Maximize(q)
		if err != nil {
			t.Fatal(err)
		}
		sameSessionAnswer(t, "over multi-shard state", got, want)
		if got.Warm != want.Warm {
			t.Fatalf("warm %v, fresh session %v", got.Warm, want.Warm)
		}
	}
}

// cancelAfterCtx cancels after a fixed number of Err() polls — the same
// deterministic mid-flight cancellation device as the store-level tests.
type cancelAfterCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *cancelAfterCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestSessionMaximizeContextCancel pins the query-cancellation contract: a
// MaximizeContext abandoned mid-growth returns context.Canceled with the
// store exactly as before — no partial growth — and the next identical
// query, uncanceled, answers bit-identically to a never-canceled twin.
func TestSessionMaximizeContextCancel(t *testing.T) {
	g, err := GeneratePowerLaw(300, 1800, 2.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(g, IC, SessionOptions{Seed: 31, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(g, IC, SessionOptions{Seed: 31, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{K: 7, Epsilon: 0.3}

	// Pre-canceled: rejected before any work.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.MaximizeContext(pre, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled err = %v", err)
	}
	if st := sess.Stats(); st.Samples != 0 {
		t.Fatalf("pre-canceled query grew the store to %d", st.Samples)
	}

	// Mid-flight: the context flips during the query's doubling loop.
	// Completed top-ups legitimately remain — each is atomic — but a
	// canceled one must leave nothing: the store may only ever sit at a
	// clean schedule prefix (a length the never-canceled twin also
	// passes through), never mid-append. The bit-identical convergence
	// below is the torn-store detector: any partial append would skew
	// every later coverage count.
	canceled := 0
	for _, after := range []int64{2, 4, 8, 16, 64} {
		before := sess.Stats()
		ctx := &cancelAfterCtx{Context: context.Background(), after: after}
		res, err := sess.MaximizeContext(ctx, q)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("after=%d err = %v", after, err)
			}
			canceled++
			if st := sess.Stats(); st.Samples < before.Samples {
				t.Fatalf("after=%d store shrank: %d → %d", after, before.Samples, st.Samples)
			}
			continue
		}
		want, werr := ref.Maximize(q)
		if werr != nil {
			t.Fatal(werr)
		}
		sameSessionAnswer(t, "late-cancel full answer", res, want)
	}
	if canceled == 0 {
		t.Fatalf("no flip point canceled — test exercised nothing")
	}

	// The abandoned growths left no trace: the same query, uncanceled,
	// answers exactly like the never-canceled twin (including through
	// MaximizeContext with a live context).
	want, err := ref.Maximize(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.MaximizeContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	sameSessionAnswer(t, "post-cancel query", got, want)
	if sess.Stats().Samples != ref.Stats().Samples {
		t.Fatalf("store sizes diverged: %d vs %d", sess.Stats().Samples, ref.Stats().Samples)
	}
}

// TestSessionSSAVerificationCancel pins cancellation inside SSA's
// verification, for a long-lived session (which grows its verification
// store) and a one-shot one (which scans): on a session whose coverage
// store is already warm, a context that fires during Estimate-Inf stops the
// query with context.Canceled, and the uncanceled query then answers, and
// leaves the verification store, exactly as a never-canceled twin does.
func TestSessionSSAVerificationCancel(t *testing.T) {
	g, err := GeneratePowerLaw(400, 2400, 2.1, 19)
	if err != nil {
		t.Fatal(err)
	}
	for _, oneShot := range []bool{false, true} {
		var sessions [2]*Session
		for i := range sessions {
			if sessions[i], err = newSession(g, IC, SessionOptions{Seed: 5, Workers: 2}, oneShot); err != nil {
				t.Fatal(err)
			}
			if _, err := sessions[i].Maximize(Query{K: 5, Epsilon: 0.1}); err != nil { // warms coverage
				t.Fatal(err)
			}
		}
		sess, ref := sessions[0], sessions[1]
		q := Query{Algorithm: SSA, K: 5, Epsilon: 0.3}
		samples := sess.Stats().Samples
		canceled := 0
		for _, after := range []int64{1, 2, 3, 5, 8} {
			ctx := &cancelAfterCtx{Context: context.Background(), after: after}
			if _, err := sess.MaximizeContext(ctx, q); err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("one-shot %v after=%d err = %v", oneShot, after, err)
				}
				canceled++
			}
			if st := sess.Stats(); st.Samples != samples {
				t.Fatalf("one-shot %v after=%d: the coverage store moved %d → %d; the test needs it warm", oneShot, after, samples, st.Samples)
			}
		}
		if canceled == 0 {
			t.Fatalf("one-shot %v: no flip point canceled — test exercised nothing", oneShot)
		}
		want, err := ref.Maximize(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Maximize(q)
		if err != nil {
			t.Fatal(err)
		}
		sameSessionAnswer(t, "post-cancel SSA query", got, want)
		a, b := sess.Stats().VerifySamples, ref.Stats().VerifySamples
		if a != b || oneShot && a != 0 {
			t.Fatalf("one-shot %v: verification stores diverged: %d vs never-canceled %d sets", oneShot, a, b)
		}
	}
}

// TestSessionScansPastRetainedIDs lowers the verification id range a store
// can hold: windows reaching past it are scanned, so a session's SSA
// answers equal those it gives at the real limit while its store stops at
// the lowered one.
func TestSessionScansPastRetainedIDs(t *testing.T) {
	g, err := GeneratePowerLaw(400, 2400, 2.1, 19)
	if err != nil {
		t.Fatal(err)
	}
	qs := []Query{{Algorithm: SSA, K: 4, Epsilon: 0.3}, {Algorithm: SSA, K: 8, Epsilon: 0.2}, {Algorithm: SSA, K: 4, Epsilon: 0.3}}
	const limit = 500
	var answers [2][]*Result
	var retained [2]int
	for i, ids := range []int{retainedIDs, limit} {
		defer func(old int) { retainedIDs = old }(retainedIDs)
		retainedIDs = ids
		sess, err := NewSession(g, LT, SessionOptions{Seed: 5, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			res, err := sess.Maximize(q)
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = append(answers[i], res)
		}
		retained[i] = sess.Stats().VerifySamples
	}
	for i := range qs {
		sameSessionAnswer(t, "past the store's limit", answers[1][i], answers[0][i])
	}
	if retained[0] <= limit {
		t.Fatalf("the queries reached verification id %d and never crossed the lowered limit", retained[0])
	}
	if n := retained[1]; n == 0 || n > limit {
		t.Fatalf("verification store holds %d sets, want some and at most %d", n, limit)
	}
}
