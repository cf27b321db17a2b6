package serving

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"stopandstare"
)

// newTestStack builds a manager with two heap-graph tenants behind an
// httptest server.
func newTestStack(t *testing.T, cfg Config, scfg ServerConfig) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	for i, name := range []string{"alpha", "beta"} {
		if err := m.AddTenant(name, TenantConfig{
			Graph: testGraph(t, uint64(30+i)), Model: stopandstare.IC,
			Session: stopandstare.SessionOptions{Seed: uint64(40 + i), Workers: 2},
		}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewServer(m, scfg).Handler())
	t.Cleanup(ts.Close)
	return m, ts
}

func post(t *testing.T, ts *httptest.Server, body string) (*http.Response, MaximizeResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/maximize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out MaximizeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func getStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeTenantRouting checks tenant resolution: explicit names route,
// an ambiguous omission is a 400, an unknown tenant is a 404, and the
// configured default fills in.
func TestServeTenantRouting(t *testing.T) {
	_, ts := newTestStack(t, Config{}, ServerConfig{DefaultTenant: "beta"})
	resp, out := post(t, ts, `{"tenant":"alpha","k":6,"epsilon":0.3}`)
	if resp.StatusCode != http.StatusOK || out.Tenant != "alpha" || len(out.Seeds) != 6 {
		t.Fatalf("alpha query: status %d tenant %q seeds %d", resp.StatusCode, out.Tenant, len(out.Seeds))
	}
	resp, out = post(t, ts, `{"k":6,"epsilon":0.3}`)
	if resp.StatusCode != http.StatusOK || out.Tenant != "beta" {
		t.Fatalf("default query: status %d tenant %q", resp.StatusCode, out.Tenant)
	}
	if resp, _ := post(t, ts, `{"tenant":"gamma","k":6}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", resp.StatusCode)
	}

	// Without a default and two tenants, omission is ambiguous.
	_, ts2 := newTestStack(t, Config{}, ServerConfig{})
	if resp, _ := post(t, ts2, `{"k":6}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ambiguous tenant: status %d, want 400", resp.StatusCode)
	}

	st := getStats(t, ts)
	if len(st.Tenants) != 2 || st.Tenants[0].Name != "alpha" || st.Tenants[1].Name != "beta" {
		t.Fatalf("stats tenants: %+v", st.Tenants)
	}
	if st.Tenants[0].Samples <= 0 || st.Tenants[0].StoreBytes <= 0 || st.Tenants[0].Growths <= 0 ||
		st.Tenants[0].Solvers <= 0 || st.Tenants[0].SolverBytes <= 0 {
		t.Fatalf("alpha stats empty after query: %+v", st.Tenants[0])
	}
}

// TestServeStatsVerifyStore checks the verification store's /stats
// fields: zero until a tenant serves an SSA query, then its retained sets
// and bytes, which the tenant's store_bytes (the budgeted number) includes.
func TestServeStatsVerifyStore(t *testing.T) {
	_, ts := newTestStack(t, Config{}, ServerConfig{})
	if resp, _ := post(t, ts, `{"tenant":"alpha","k":6,"epsilon":0.3}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("dssa query: status %d", resp.StatusCode)
	}
	dssa := getStats(t, ts).Tenants[0]
	if dssa.VerifySamples != 0 || dssa.VerifyBytes != 0 {
		t.Fatalf("D-SSA query touched the verification store: %+v", dssa)
	}
	resp, out := post(t, ts, `{"tenant":"alpha","k":6,"epsilon":0.3,"algorithm":"ssa"}`)
	if resp.StatusCode != http.StatusOK || out.Warm {
		t.Fatalf("ssa query: status %d warm %v", resp.StatusCode, out.Warm)
	}
	ssa := getStats(t, ts).Tenants[0]
	if ssa.VerifySamples <= 0 || ssa.VerifyBytes <= 0 || ssa.StoreBytes < dssa.StoreBytes+ssa.VerifyBytes {
		t.Fatalf("after an SSA query: %+v (before it: %+v)", ssa, dssa)
	}
	raw, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var body struct {
		Tenants []map[string]any `json:"tenants"`
	}
	if err := json.NewDecoder(raw.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"verify_samples", "verify_bytes"} {
		if _, ok := body.Tenants[0][key]; !ok {
			t.Fatalf("/stats tenant has no %q: %v", key, body.Tenants[0])
		}
	}
}

// TestServeStatsBody pins the whole /stats body: its exact key sets, the
// omitempty keys absent when zero, and every value. Tenant "hot" is
// resident with a small spill budget and has answered one D-SSA and one SSA
// query; tenant "cold" is a GraphFile tenant never queried. Each session
// value must equal Session.Stats() of a twin session with the same options
// and queries, and each manager value the manager's own counters.
func TestServeStatsBody(t *testing.T) {
	g := testGraph(t, 36)
	path := filepath.Join(t.TempDir(), "cold.sasg")
	if err := testGraph(t, 37).WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	sopt := func() stopandstare.SessionOptions {
		return stopandstare.SessionOptions{Seed: 47, Workers: 2, SpillBudgetBytes: 4096, SpillDir: t.TempDir()}
	}
	m := NewManager(Config{})
	t.Cleanup(m.Close)
	if err := m.AddTenant("hot", TenantConfig{Graph: g, Model: stopandstare.IC, Session: sopt()}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTenant("cold", TenantConfig{GraphFile: path, Model: stopandstare.LT, Session: sopt()}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(m, ServerConfig{}).Handler())
	t.Cleanup(ts.Close)
	twin, err := stopandstare.NewSession(g, stopandstare.IC, sopt())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"dssa", "ssa"} {
		if resp, _ := post(t, ts, `{"tenant":"hot","k":6,"epsilon":0.3,"algorithm":"`+algo+`"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s query: status %d", algo, resp.StatusCode)
		}
		a, err := stopandstare.ParseAlgorithm(algo)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Maximize(stopandstare.Query{Algorithm: a, K: 6, Epsilon: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	hot := twin.Stats()
	if hot.StoreSpilledBytes <= 0 || hot.SpillFileBytes <= 0 || hot.VerifySamples <= 0 {
		t.Fatalf("the hot tenant's twin did not spill or keep verification sets: %+v", hot)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}

	keysOf := func(m map[string]any) []string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return keys
	}
	sameKeys := func(what string, got map[string]any, want ...string) {
		t.Helper()
		slices.Sort(want)
		if k := keysOf(got); !slices.Equal(k, want) {
			t.Fatalf("%s keys\n got %v\nwant %v", what, k, want)
		}
	}
	tenantKeys := []string{"name", "resident", "nodes", "edges", "model", "queries", "evictions",
		"samples", "items", "growths", "store_bytes", "verify_samples", "verify_bytes",
		"plan_bytes", "graph_resident_bytes", "graph_mapped_bytes", "solvers", "solver_bytes",
		"growth_alloc_bytes", "growth_gc_cycles"}
	// Absent from every body below: recovering, recovered, snapshot_bytes
	// and persists are zero, and so are the cold tenant's spill keys.
	sameKeys("/stats", body, "uptime_sec", "queries", "executed", "coalesced", "rejected_429",
		"timeout_503", "evictions", "spills", "store_bytes", "store_spilled_bytes",
		"spill_file_bytes", "budget_bytes", "recovered", "persists", "snapshot_bytes",
		"in_flight", "queued", "tenants")
	tenants, ok := body["tenants"].([]any)
	if !ok || len(tenants) != 2 {
		t.Fatalf("/stats tenants: %v", body["tenants"])
	}
	cold, _ := tenants[0].(map[string]any)
	hotBody, _ := tenants[1].(map[string]any)
	sameKeys("cold tenant", cold, tenantKeys...)
	sameKeys("hot tenant", hotBody, append(slices.Clone(tenantKeys), "store_spilled_bytes", "spill_file_bytes")...)

	if up, ok := body["uptime_sec"].(float64); !ok || up <= 0 {
		t.Fatalf("uptime_sec %v", body["uptime_sec"])
	}
	delete(body, "uptime_sec")
	delete(body, "tenants")
	sameValues := func(what string, got, want map[string]any) {
		t.Helper()
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("%s %s = %v, want %v", what, k, got[k], w)
			}
		}
	}
	sameValues("/stats", body, map[string]any{
		"queries": 2.0, "executed": 2.0, "coalesced": 0.0, "rejected_429": 0.0, "timeout_503": 0.0,
		"evictions": 0.0, "spills": 0.0, "store_bytes": float64(hot.StoreBytes),
		"store_spilled_bytes": float64(hot.StoreSpilledBytes), "spill_file_bytes": float64(hot.SpillFileBytes),
		"budget_bytes": 0.0, "recovered": 0.0, "persists": 0.0, "snapshot_bytes": 0.0,
		"in_flight": 0.0, "queued": 0.0,
	})
	session := func(st stopandstare.SessionStats) map[string]any {
		return map[string]any{
			"samples": float64(st.Samples), "items": float64(st.Items), "growths": float64(st.Growths),
			"store_bytes": float64(st.StoreBytes), "verify_samples": float64(st.VerifySamples),
			"verify_bytes": float64(st.VerifyBytes), "plan_bytes": float64(st.PlanBytes),
			"graph_resident_bytes": float64(st.GraphResidentBytes),
			"graph_mapped_bytes":   float64(st.GraphMappedBytes),
			"solvers":              float64(st.Solvers), "solver_bytes": float64(st.SolverBytes),
		}
	}
	wantHot := session(hot)
	for k, v := range map[string]any{
		"name": "hot", "resident": true, "nodes": float64(g.NumNodes()), "edges": float64(g.NumEdges()),
		"model": stopandstare.IC.String(), "queries": 2.0, "evictions": 0.0,
		"store_spilled_bytes": float64(hot.StoreSpilledBytes), "spill_file_bytes": float64(hot.SpillFileBytes),
	} {
		wantHot[k] = v
	}
	sameValues("hot tenant", hotBody, wantHot)
	// The growth counters are process-wide reads, so the twin's differ; the
	// hot tenant's own growths allocated.
	if v, _ := hotBody["growth_alloc_bytes"].(float64); v <= 0 {
		t.Fatalf("hot tenant growth_alloc_bytes = %v after growing queries", hotBody["growth_alloc_bytes"])
	}
	wantCold := session(stopandstare.SessionStats{})
	for k, v := range map[string]any{
		"name": "cold", "resident": false, "nodes": 0.0, "edges": 0.0, "model": "", "queries": 0.0, "evictions": 0.0,
		"growth_alloc_bytes": 0.0, "growth_gc_cycles": 0.0,
	} {
		wantCold[k] = v
	}
	sameValues("cold tenant", cold, wantCold)
}

// TestServeWarmAndCoalesced checks the serving metadata flags over HTTP:
// a repeat is Warm, and concurrent identical queries come back with one
// leader and a Coalesced follower.
func TestServeWarmAndCoalesced(t *testing.T) {
	var m *Manager
	gate := make(chan struct{})
	m = NewManager(Config{
		MaxInFlight: 2,
		OnExecute: func(string) {
			<-gate // held open only during the coalescing phase below
		},
	})
	t.Cleanup(m.Close)
	if err := m.AddTenant("solo", TenantConfig{
		Graph: testGraph(t, 33), Model: stopandstare.IC,
		Session: stopandstare.SessionOptions{Seed: 44, Workers: 2},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(m, ServerConfig{}).Handler())
	t.Cleanup(ts.Close)

	const body = `{"k":7,"epsilon":0.3}`
	type reply struct {
		status int
		out    MaximizeResponse
	}
	replies := make([]reply, 2)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := post(t, ts, body)
			replies[i] = reply{resp.StatusCode, out}
		}(i)
	}
	// Release the leader once the follower has joined its flight.
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().Coalesced < 1 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	wg.Wait()

	var coalesced int
	for _, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("concurrent query status %d", r.status)
		}
		if r.out.Coalesced {
			coalesced++
		}
	}
	if coalesced != 1 {
		t.Fatalf("%d coalesced replies, want exactly 1", coalesced)
	}

	_, warm := post(t, ts, body)
	if !warm.Warm || warm.Coalesced {
		t.Fatalf("repeat query: warm=%v coalesced=%v, want warm only", warm.Warm, warm.Coalesced)
	}
	if st := getStats(t, ts); st.Executed != 2 || st.Coalesced != 1 {
		t.Fatalf("stats executed=%d coalesced=%d, want 2/1", st.Executed, st.Coalesced)
	}
}

// checkRetryAfter asserts a backpressure response carries a Retry-After
// header that parses as a positive integer no larger than the default
// timeout (30s here) — the limiter-derived hint, not a bare placeholder and
// not an unbounded backoff.
func checkRetryAfter(t *testing.T, ctx string, resp *http.Response) {
	t.Helper()
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatalf("%s without Retry-After", ctx)
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("%s Retry-After %q, want a positive integer of seconds", ctx, ra)
	}
	if secs > 30 {
		t.Fatalf("%s Retry-After %ds exceeds the 30s default timeout", ctx, secs)
	}
}

// TestServeBackpressure checks overload surfaces as 429 (queue full) and
// 503 (deadline while queued), both with Retry-After, while the held
// request still completes.
func TestServeBackpressure(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Config{
		MaxInFlight: 1,
		MaxQueued:   1,
		OnExecute:   func(string) { <-gate },
	})
	t.Cleanup(m.Close)
	if err := m.AddTenant("solo", TenantConfig{
		Graph: testGraph(t, 35), Model: stopandstare.IC,
		Session: stopandstare.SessionOptions{Seed: 46, Workers: 2},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(m, ServerConfig{}).Handler())
	t.Cleanup(ts.Close)

	// Request 1 occupies the only execution slot, parked on the gate.
	first := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts, `{"k":4,"epsilon":0.35}`)
		first <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().InFlight < 1 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}

	// Request 2 (distinct, so it cannot coalesce) waits in the queue until
	// its deadline: 503.
	resp, _ := post(t, ts, `{"k":5,"epsilon":0.35,"timeout_ms":30}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-past-deadline query: status %d, want 503", resp.StatusCode)
	}
	checkRetryAfter(t, "503", resp)

	// Requests 2' and 3 together overflow: one queues, one is rejected
	// outright with 429. Fire 2' asynchronously so it holds the queue slot.
	queued := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts, `{"k":6,"epsilon":0.35}`)
		queued <- resp.StatusCode
	}()
	for m.Stats().Queued < 1 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	resp, _ = post(t, ts, `{"k":7,"epsilon":0.35}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full query: status %d, want 429", resp.StatusCode)
	}
	checkRetryAfter(t, "429", resp)

	// Releasing the gate drains everything held: the first request and the
	// queued one both succeed.
	close(gate)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("held request finished with %d", code)
	}
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued request finished with %d", code)
	}
	st := getStats(t, ts)
	if st.Rejected429 != 1 || st.Timeout503 != 1 {
		t.Fatalf("stats rejected=%d timeout=%d, want 1/1", st.Rejected429, st.Timeout503)
	}
}

// TestServePprofGate checks the profile endpoints exist only behind the
// flag.
func TestServePprofGate(t *testing.T) {
	m := NewManager(Config{})
	t.Cleanup(m.Close)
	off := httptest.NewServer(NewServer(m, ServerConfig{}).Handler())
	t.Cleanup(off.Close)
	on := httptest.NewServer(NewServer(m, ServerConfig{EnablePprof: true}).Handler())
	t.Cleanup(on.Close)

	if resp, err := http.Get(off.URL + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without flag: status %d, want 404", resp.StatusCode)
	}
	if resp, err := http.Get(on.URL + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with flag: status %d, want 200", resp.StatusCode)
	}
}

// TestServeBadRequests mirrors the original imserve error tests against
// the multi-tenant handler.
func TestServeBadRequests(t *testing.T) {
	_, ts := newTestStack(t, Config{}, ServerConfig{DefaultTenant: "alpha"})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},                         // malformed JSON
		{`{"k":0}`, http.StatusBadRequest},                   // invalid k
		{`{"k":5,"algorithm":"imm"}`, http.StatusBadRequest}, // non-session algorithm
	} {
		resp, _ := post(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("POST %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/maximize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /maximize: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats: status %d, want 405", resp.StatusCode)
	}
}

// TestServeTenantUnavailable pins the status of server-side faults: a
// tenant whose graph file is missing, or is not a valid .sasg, answers 500
// (its session cannot be built, whatever the request), while a bad request
// to a healthy tenant still answers 400.
func TestServeTenantUnavailable(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.sasg")
	if err := os.WriteFile(junk, []byte("not a graph file, just junk bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{})
	t.Cleanup(m.Close)
	for name, cfg := range map[string]TenantConfig{
		"missing": {GraphFile: filepath.Join(dir, "missing.sasg")},
		"junk":    {GraphFile: junk},
		"good":    {Graph: testGraph(t, 12)},
	} {
		cfg.Model = stopandstare.IC
		cfg.Session = stopandstare.SessionOptions{Seed: 1, Workers: 2}
		if err := m.AddTenant(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewServer(m, ServerConfig{}).Handler())
	t.Cleanup(ts.Close)

	for _, name := range []string{"missing", "junk"} {
		_, err := m.Maximize(context.Background(), name, stopandstare.Query{K: 5})
		if !errors.Is(err, ErrTenantUnavailable) {
			t.Fatalf("%s: Maximize error %v, want ErrTenantUnavailable", name, err)
		}
		resp, _ := post(t, ts, `{"tenant":"`+name+`","k":5}`)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500", name, resp.StatusCode)
		}
	}
	if resp, _ := post(t, ts, `{"tenant":"good","k":0}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf(`good {"k":0}: status %d, want 400`, resp.StatusCode)
	}
	if resp, out := post(t, ts, `{"tenant":"good","k":5}`); resp.StatusCode != http.StatusOK || len(out.Seeds) != 5 {
		t.Fatalf("good tenant: status %d, %d seeds", resp.StatusCode, len(out.Seeds))
	}
}

// TestServeCorruptTenant: a tenant whose .sasg passes open but holds an
// in-edge source that is not a node (one inAdj word set to 2³⁰) answers
// 500 with the typed content error, query after query, and the healthy
// tenant beside it keeps answering.
func TestServeCorruptTenant(t *testing.T) {
	g, err := stopandstare.GenerateErdosRenyi(200, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corrupt.sasg")
	if err := g.WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	inAdj := binary.LittleEndian.Uint64(data[32+16*4:]) // section table entry 4
	binary.LittleEndian.PutUint32(data[inAdj+4*500:], 1<<30)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m := NewManager(Config{})
	t.Cleanup(m.Close)
	sopt := stopandstare.SessionOptions{Seed: 1, Workers: 2}
	if err := m.AddTenant("corrupt", TenantConfig{GraphFile: path, Model: stopandstare.IC, Session: sopt}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTenant("good", TenantConfig{Graph: testGraph(t, 12), Model: stopandstare.IC, Session: sopt}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(m, ServerConfig{}).Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 2; i++ {
		_, err := m.Maximize(context.Background(), "corrupt", stopandstare.Query{K: 5})
		if !errors.Is(err, ErrTenantUnavailable) || !errors.Is(err, stopandstare.ErrBadGraphContent) {
			t.Fatalf("corrupt tenant: Maximize error %v, want ErrTenantUnavailable wrapping the content error", err)
		}
		if resp, _ := post(t, ts, `{"tenant":"corrupt","k":5}`); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("corrupt tenant: status %d, want 500", resp.StatusCode)
		}
		if resp, out := post(t, ts, `{"tenant":"good","k":5}`); resp.StatusCode != http.StatusOK || len(out.Seeds) != 5 {
			t.Fatalf("good tenant: status %d, %d seeds", resp.StatusCode, len(out.Seeds))
		}
	}
	// The corrupt tenant's session stays resident, with no plan to account.
	for _, ten := range getStats(t, ts).Tenants {
		if ten.Name == "corrupt" && ten.PlanBytes != 0 {
			t.Fatalf("corrupt tenant reports a %d-byte plan", ten.PlanBytes)
		}
	}
}
