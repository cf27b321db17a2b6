// Durability wiring of the serving layer: budget evictions and retirement
// snapshot durable tenants, re-admission and process "restarts" recover
// them bit-identically, startup sweeps crash debris, and the
// liveness/readiness split gates traffic while recovery is in progress.
package serving

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"stopandstare"
	"stopandstare/internal/ris"
)

// waitRecovered blocks until the manager's recovery pass finishes.
func waitRecovered(t *testing.T, m *Manager) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.Recovering() {
		if time.Now().After(deadline) {
			t.Fatal("recovery pass never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDurableEvictionRecovery drives the full durable-tenant lifecycle:
// seeded crash debris is swept by the startup pass (orphan cleanup), a
// budget eviction snapshots the store, re-admission recovers it instead of
// resampling, a manager "restart" over the same state dir warms tenants
// eagerly, and every answer along the way is bit-identical to a session
// that never went through any of it.
func TestDurableEvictionRecovery(t *testing.T) {
	gA, gB := testGraph(t, 7), testGraph(t, 8)
	state := t.TempDir()
	optA := stopandstare.SessionOptions{Seed: 11, Workers: 2}
	optB := stopandstare.SessionOptions{Seed: 12, Workers: 2}

	// Crash debris in tenant a's state dir: an uncommitted manifest temp
	// file and a snapshot no manifest references. Startup must sweep both
	// and keep unrelated files.
	dirA := filepath.Join(state, "a")
	if err := os.MkdirAll(dirA, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"manifest.json.tmp", "snapshot-000099.rrsnap"} {
		if err := os.WriteFile(filepath.Join(dirA, junk), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dirA, "notes.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	newMgr := func() *Manager {
		m := NewManager(Config{BudgetBytes: 1, StateDir: state})
		if err := m.AddTenant("a", TenantConfig{Graph: gA, Model: stopandstare.IC, Session: optA}); err != nil {
			t.Fatal(err)
		}
		if err := m.AddTenant("b", TenantConfig{Graph: gB, Model: stopandstare.IC, Session: optB}); err != nil {
			t.Fatal(err)
		}
		m.StartRecovery()
		waitRecovered(t, m)
		return m
	}
	m := newMgr()

	for _, junk := range []string{"manifest.json.tmp", "snapshot-000099.rrsnap"} {
		if _, err := os.Stat(filepath.Join(dirA, junk)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("startup kept orphan %s (err %v)", junk, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dirA, "notes.txt")); err != nil {
		t.Fatalf("startup removed unrelated file: %v", err)
	}

	twin, err := stopandstare.NewSession(gA, stopandstare.IC, optA)
	if err != nil {
		t.Fatal(err)
	}
	q := stopandstare.Query{K: 8, Epsilon: 0.3}
	want, err := twin.Maximize(q)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	first, err := m.Maximize(ctx, "a", q)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "first query", first, want)
	// Querying b over the 1-byte budget evicts idle a — which, being
	// durable, snapshots first.
	if _, err := m.Maximize(ctx, "b", stopandstare.Query{K: 5, Epsilon: 0.3}); err != nil {
		t.Fatal(err)
	}
	ts := tenantStats(t, m, "a")
	if ts.Resident || ts.Persists == 0 {
		t.Fatalf("eviction did not snapshot: %+v", ts)
	}
	if _, err := ris.ReadSnapshotInfo(dirA); err != nil {
		t.Fatalf("no committed snapshot after eviction: %v", err)
	}
	// Re-admission recovers the snapshot instead of resampling, and the
	// warm repeat answers exactly.
	again, err := m.Maximize(ctx, "a", q)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "post-eviction query", again, want)
	ts = tenantStats(t, m, "a")
	if ts.Recovered == 0 || ts.Growths != 0 {
		t.Fatalf("re-admission resampled instead of recovering: %+v", ts.SessionStats)
	}
	if !again.Warm {
		t.Fatal("recovered repeat was not warm")
	}
	// Close persists through the retirement path (the SIGTERM drain).
	persistsBefore := ts.Persists
	m.Close()

	// "Restart": a new manager over the same state dir warms both tenants
	// in StartRecovery and answers warm and bit-identical immediately.
	m2 := newMgr()
	defer m2.Close()
	st := m2.Stats()
	if st.Recovered == 0 {
		t.Fatalf("restarted manager recovered nothing: %+v", st)
	}
	ts = tenantStats(t, m2, "a")
	if !ts.Resident || ts.Recovered == 0 {
		t.Fatalf("tenant a not warmed by recovery pass: %+v", ts)
	}
	if ts.Persists != 0 && ts.Persists == persistsBefore {
		t.Fatalf("per-manager persist counter leaked: %+v", ts)
	}
	res, err := m2.Maximize(ctx, "a", q)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "post-restart query", res, want)
	if !res.Warm {
		t.Fatal("post-restart repeat was not warm")
	}
}

// TestRetireRacingInFlightQuery pins satellite invariant: a RemoveTenant
// racing an in-flight query never tears it — the query completes with its
// exact answer (retirement drains in-flight work before releasing the
// graph), and queries arriving after removal get the typed
// ErrUnknownTenant.
func TestRetireRacingInFlightQuery(t *testing.T) {
	g := testGraph(t, 9)
	entered := make(chan struct{})
	var once sync.Once
	m := NewManager(Config{OnExecute: func(string) {
		once.Do(func() { close(entered) })
		// Hold the query in execution long enough for RemoveTenant to be
		// issued while it is demonstrably in flight.
		time.Sleep(20 * time.Millisecond)
	}})
	defer m.Close()
	opt := stopandstare.SessionOptions{Seed: 17, Workers: 2}
	if err := m.AddTenant("a", TenantConfig{Graph: g, Model: stopandstare.IC, Session: opt}); err != nil {
		t.Fatal(err)
	}
	twin, err := stopandstare.NewSession(g, stopandstare.IC, opt)
	if err != nil {
		t.Fatal(err)
	}
	q := stopandstare.Query{K: 6, Epsilon: 0.3}
	want, err := twin.Maximize(q)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *stopandstare.Result
		err error
	}
	resc := make(chan outcome, 1)
	go func() {
		res, err := m.Maximize(context.Background(), "a", q)
		resc <- outcome{res, err}
	}()
	<-entered
	removed := make(chan error, 1)
	go func() { removed <- m.RemoveTenant("a") }()

	out := <-resc
	if out.err != nil {
		t.Fatalf("in-flight query failed during retirement: %v", out.err)
	}
	sameAnswer(t, "raced query", out.res, want)
	if err := <-removed; err != nil {
		t.Fatalf("RemoveTenant: %v", err)
	}
	if _, err := m.Maximize(context.Background(), "a", q); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("post-removal query err = %v, want ErrUnknownTenant", err)
	}
}

// TestEvictRacingQueries hammers two tenants under a 1-byte budget — every
// query triggers eviction of the other, idle tenant — and checks that no
// concurrent mix of evictions and queries ever corrupts an answer: each
// result is bit-identical to its tenant's never-evicted twin.
func TestEvictRacingQueries(t *testing.T) {
	gA, gB := testGraph(t, 7), testGraph(t, 8)
	m := NewManager(Config{BudgetBytes: 1})
	defer m.Close()
	opts := map[string]stopandstare.SessionOptions{
		"a": {Seed: 11, Workers: 2},
		"b": {Seed: 12, Workers: 2},
	}
	graphs := map[string]*stopandstare.Graph{"a": gA, "b": gB}
	wants := map[string]*stopandstare.Result{}
	q := stopandstare.Query{K: 6, Epsilon: 0.3}
	for name, g := range graphs {
		if err := m.AddTenant(name, TenantConfig{Graph: g, Model: stopandstare.IC, Session: opts[name]}); err != nil {
			t.Fatal(err)
		}
		twin, err := stopandstare.NewSession(g, stopandstare.IC, opts[name])
		if err != nil {
			t.Fatal(err)
		}
		if wants[name], err = twin.Maximize(q); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 8; i++ {
		name := "a"
		if i%2 == 1 {
			name = "b"
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				res, err := m.Maximize(context.Background(), name, q)
				if err != nil {
					errs <- name + ": " + err.Error()
					return
				}
				want := wants[name]
				if res.Samples != want.Samples || res.InfluenceEstimate != want.InfluenceEstimate {
					errs <- name + ": answer drifted under eviction pressure"
					return
				}
			}
		}(name)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// getReadyz fetches /readyz, returning status and decoded body.
func getReadyz(t *testing.T, ts *httptest.Server) (int, ReadyzResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ReadyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestHealthzReadyzSplit pins the liveness/readiness contract over HTTP:
// /healthz stays 200 throughout, /readyz flips to 503 while a recovery
// pass runs and back to 200 when it completes.
func TestHealthzReadyzSplit(t *testing.T) {
	m, ts := newTestStack(t, Config{}, ServerConfig{})

	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d at rest, want 200", probe, resp.StatusCode)
		}
	}

	// Hold the manager in the recovering state (the counter StartRecovery
	// bumps for the duration of its pass): readiness must gate, liveness
	// must not.
	m.recovering.Add(1)
	status, body := getReadyz(t, ts)
	if status != http.StatusServiceUnavailable || body.Ready || !body.Recovering {
		t.Fatalf("/readyz while recovering = %d %+v, want 503 ready=false recovering=true", status, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while recovering = %d, want 200", resp.StatusCode)
	}
	m.recovering.Add(-1)
	if status, body = getReadyz(t, ts); status != http.StatusOK || !body.Ready {
		t.Fatalf("/readyz after recovery = %d %+v, want 200 ready=true", status, body)
	}
}
