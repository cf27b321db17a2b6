package stopandstare_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"stopandstare"
)

// This file extends the session differential harness to the disk spill
// tier: a session whose store runs under a byte budget — 0%, ~50%, ~90%
// spilled, or everything spillable spilled — must answer a randomized
// query stream bit-identically to an unbudgeted session. Spilling moves
// residency, never results.

// compareSpilledResult is assertSameResult minus the cold-run Warm check:
// the reference here is itself a warm session, so repeats legitimately
// report Warm on both sides.
func compareSpilledResult(t *testing.T, ctx string, got, want *stopandstare.Result,
	gotTrace, wantTrace []stopandstare.Checkpoint) {
	t.Helper()
	if fmt.Sprint(got.Seeds) != fmt.Sprint(want.Seeds) {
		t.Fatalf("%s: Seeds %v vs flat %v", ctx, got.Seeds, want.Seeds)
	}
	if got.InfluenceEstimate != want.InfluenceEstimate {
		t.Fatalf("%s: Influence %v vs flat %v", ctx, got.InfluenceEstimate, want.InfluenceEstimate)
	}
	if got.Samples != want.Samples || got.Iterations != want.Iterations || got.HitCap != want.HitCap {
		t.Fatalf("%s: samples/iter/hitcap %d/%d/%v vs flat %d/%d/%v", ctx,
			got.Samples, got.Iterations, got.HitCap, want.Samples, want.Iterations, want.HitCap)
	}
	if len(gotTrace) != len(wantTrace) {
		t.Fatalf("%s: %d checkpoints vs flat %d", ctx, len(gotTrace), len(wantTrace))
	}
	for i := range wantTrace {
		if gotTrace[i] != wantTrace[i] {
			t.Fatalf("%s: checkpoint %d differs:\nspilled %+v\nflat    %+v", ctx, i, gotTrace[i], wantTrace[i])
		}
	}
}

// runSpillSequence replays qs on sess, returning per-query results and
// traces.
func runSpillSequence(t *testing.T, ctx string, sess *stopandstare.Session, qs []sessionQuery) ([]*stopandstare.Result, [][]stopandstare.Checkpoint) {
	t.Helper()
	results := make([]*stopandstare.Result, len(qs))
	traces := make([][]stopandstare.Checkpoint, len(qs))
	for qi, q := range qs {
		var trace []stopandstare.Checkpoint
		res, err := sess.Maximize(stopandstare.Query{
			Algorithm: q.algo, K: q.k, Epsilon: q.eps,
			OnCheckpoint: func(cp stopandstare.Checkpoint) { trace = append(trace, cp) },
		})
		if err != nil {
			t.Fatalf("%s: q%d(%s,k=%d,eps=%v): %v", ctx, qi, q.algo, q.k, q.eps, err)
		}
		results[qi], traces[qi] = res, trace
	}
	return results, traces
}

// TestSessionDifferentialSpilled runs a randomized query stream on spilled
// sessions at budgets derived from the flat session's resident footprint
// (no spill, ~50%, ~90%, and a 1-byte budget that spills everything
// spillable), demanding bit-identical per-query results
// and checkpoint traces — then hammers the tightest-budget session with
// concurrent repeats for race coverage over the fault-in paths.
func TestSessionDifferentialSpilled(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(220, 1400, 2.1, 99)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 71
	qs := randomQuerySequence(43, 10)

	flat, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{
		Seed: seed, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantTraces := runSpillSequence(t, "flat", flat, qs)
	flatBytes := flat.Stats().StoreBytes
	if flatBytes <= 0 {
		t.Fatalf("flat session reports StoreBytes %d", flatBytes)
	}

	budgets := []int64{
		2 * flatBytes, // budget above footprint: spill tier armed, nothing moves
		flatBytes / 2,
		flatBytes / 10,
		1,
	}
	for _, budget := range budgets {
		ctx := fmt.Sprintf("budget=%d", budget)
		sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{
			Seed: seed, Workers: 2, SpillBudgetBytes: budget, SpillDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		gotRes, gotTraces := runSpillSequence(t, ctx, sess, qs)
		for qi := range qs {
			compareSpilledResult(t, fmt.Sprintf("%s/q%d", ctx, qi),
				gotRes[qi], wantRes[qi], gotTraces[qi], wantTraces[qi])
		}
		st := sess.Stats()
		if budget < flatBytes/2+1 {
			// A budget below the flat footprint must actually tier data out.
			if st.SpillFileBytes <= 0 {
				t.Fatalf("%s: no spill file despite under-footprint budget: %+v", ctx, st)
			}
		}
		if budget == 1 && runtime.GOOS == "linux" && st.StoreBytes >= flatBytes {
			t.Fatalf("%s: resident %d not reduced below flat %d", ctx, st.StoreBytes, flatBytes)
		}

		if budget == 1 {
			// Concurrent warm repeats: every reader faults spilled blocks
			// back through the shared mappings; run under -race this covers
			// reader/reader and reader/LRU-stamp interleavings.
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for qi := 0; qi < 3; qi++ {
						res, err := sess.Maximize(stopandstare.Query{
							Algorithm: qs[qi].algo, K: qs[qi].k, Epsilon: qs[qi].eps,
						})
						if err != nil {
							t.Errorf("%s: concurrent q%d: %v", ctx, qi, err)
							return
						}
						if fmt.Sprint(res.Seeds) != fmt.Sprint(wantRes[qi].Seeds) || res.Samples != wantRes[qi].Samples {
							t.Errorf("%s: concurrent q%d drifted: %v/%d vs %v/%d", ctx, qi,
								res.Seeds, res.Samples, wantRes[qi].Seeds, wantRes[qi].Samples)
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestSessionStoreBytesMatchesStats pins Session.StoreBytes, the serving
// budget's per-pass read, to Stats().StoreBytes on a session whose coverage
// and verification stores both grew and spilled under a budget.
func TestSessionStoreBytesMatchesStats(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(400, 2400, 2.1, 17)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{
		Seed: 3, Workers: 2, SpillBudgetBytes: 64 << 10, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []stopandstare.Query{
		{Algorithm: stopandstare.DSSA, K: 8, Epsilon: 0.2},
		{Algorithm: stopandstare.SSA, K: 8, Epsilon: 0.2},
	} {
		if _, err := sess.Maximize(q); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.Stats()
	if st.Samples == 0 || st.VerifySamples == 0 || st.VerifyBytes <= 0 || st.StoreSpilledBytes == 0 {
		t.Fatalf("want both stores grown and some data spilled: %+v", st)
	}
	if got := sess.StoreBytes(); got != st.StoreBytes {
		t.Fatalf("StoreBytes() = %d, Stats().StoreBytes = %d", got, st.StoreBytes)
	}
}

// TestDroppedSessionCollectedAfterOneGC pins that nothing outside a Session
// keeps it reachable once its caller drops it: after one D-SSA and one SSA
// query on a spilled session, the first GC collects it, and with it go the
// finalizers that unmap its spill files. A sync.Pool inside the session
// fails this: the runtime's pool registry holds every pool Put to since the
// last GC through the next one.
func TestDroppedSessionCollectedAfterOneGC(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(2000, 12000, 2.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	func() {
		sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{
			Seed: 4, Workers: 2, SpillBudgetBytes: 1 << 12, SpillDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []stopandstare.Algorithm{stopandstare.DSSA, stopandstare.SSA} {
			if _, err := sess.Maximize(stopandstare.Query{Algorithm: algo, K: 5, Epsilon: 0.3}); err != nil {
				t.Fatal(err)
			}
		}
		if sess.Stats().StoreSpilledBytes == 0 {
			t.Fatal("nothing spilled: the session holds no mapping")
		}
		runtime.SetFinalizer(sess, func(*stopandstare.Session) { close(collected) })
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(2 * time.Second):
		t.Fatal("a dropped session outlived one GC")
	}
}
