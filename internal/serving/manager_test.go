package serving

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stopandstare"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/ris"
)

func testGraph(t *testing.T, seed uint64) *stopandstare.Graph {
	t.Helper()
	g, err := stopandstare.GeneratePowerLaw(400, 2400, 2.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameAnswer fails unless the two results agree in every deterministic
// observable (Seeds, Samples, InfluenceEstimate).
func sameAnswer(t *testing.T, ctx string, got, want *stopandstare.Result) {
	t.Helper()
	if !slices.Equal(got.Seeds, want.Seeds) || got.Samples != want.Samples ||
		got.InfluenceEstimate != want.InfluenceEstimate {
		t.Fatalf("%s: %v/%d/%v differs from %v/%d/%v", ctx,
			got.Seeds, got.Samples, got.InfluenceEstimate,
			want.Seeds, want.Samples, want.InfluenceEstimate)
	}
}

// TestEvictionExactness pins the eviction contract: a session evicted
// under byte pressure and re-admitted on its next query returns results
// bit-identical to a never-evicted twin, and the compiled plan survives
// eviction (the graph keeps the same plan — only the RR store is
// recomputed).
func TestEvictionExactness(t *testing.T) {
	gA, gB := testGraph(t, 7), testGraph(t, 8)
	// Budget of one byte: any resident store exceeds it, so after each
	// query every idle tenant's session is evicted — A and B evict each
	// other on every alternation.
	m := NewManager(Config{BudgetBytes: 1})
	defer m.Close()
	optA := stopandstare.SessionOptions{Seed: 11, Workers: 2}
	optB := stopandstare.SessionOptions{Seed: 12, Workers: 2}
	if err := m.AddTenant("a", TenantConfig{Graph: gA, Model: stopandstare.IC, Session: optA}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTenant("b", TenantConfig{Graph: gB, Model: stopandstare.IC, Session: optB}); err != nil {
		t.Fatal(err)
	}

	// The never-evicted twin: a solo session on the same graph and options.
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
	// The plan the twin and the first query sampled with, read off the graph.
	graphPlan := func() *ris.Plan {
		s, err := ris.NewSampler(gA, diffusion.IC)
		if err != nil {
			t.Fatal(err)
		}
		if s.PlanBytes() == 0 {
			t.Fatal("no compiled plan on the graph")
		}
		p, err := s.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plan := graphPlan()
	// Querying B pushes the total past the 1-byte budget with A idle: A's
	// session is evicted.
	if _, err := m.Maximize(ctx, "b", stopandstare.Query{K: 5, Epsilon: 0.3}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 1-byte budget: %+v", st)
	}
	var aStats TenantStatsResponse
	for _, ten := range st.Tenants {
		if ten.Name == "a" {
			aStats = ten
		}
	}
	if aStats.Resident || aStats.Evictions == 0 {
		t.Fatalf("tenant a should be evicted: %+v", aStats)
	}

	// Re-admission: the store regenerates from the session seed, so the
	// answer matches the twin bit-for-bit; and the graph still holds the
	// one plan compiled before eviction.
	again, err := m.Maximize(ctx, "a", q)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "re-admitted query", again, want)
	if again.Coalesced {
		t.Fatal("sequential query reported Coalesced")
	}
	if graphPlan() != plan {
		t.Fatal("the plan was compiled again across eviction")
	}
	// The twin, having served the same queries, agrees on growth counts.
	if tw, mg := twin.Stats().Growths, tenantSession(t, m, "a").Growths; tw != mg {
		t.Fatalf("re-admitted session growths %d != twin growths %d", mg, tw)
	}
}

func tenantSession(t *testing.T, m *Manager, name string) stopandstare.SessionStats {
	t.Helper()
	for _, ten := range m.Stats().Tenants {
		if ten.Name == name {
			return ten.SessionStats
		}
	}
	t.Fatalf("tenant %q not in stats", name)
	return stopandstare.SessionStats{}
}

// TestCoalescing pins the coalescing contract: N concurrent identical cold
// queries trigger exactly one execution and exactly the store top-ups of a
// single cold run, and every follower receives the leader's bit-identical
// result with Coalesced set. The OnExecute hook holds the leader until all
// followers have joined its flight, so the count is deterministic.
func TestCoalescing(t *testing.T) {
	g := testGraph(t, 9)
	opt := stopandstare.SessionOptions{Seed: 21, Workers: 2}
	const followers = 7

	var m *Manager
	m = NewManager(Config{
		MaxInFlight: 2,
		OnExecute: func(string) {
			deadline := time.Now().Add(10 * time.Second)
			for m.Stats().Coalesced < followers {
				if time.Now().After(deadline) {
					return // let the test fail on counts rather than hang
				}
				time.Sleep(100 * time.Microsecond)
			}
		},
	})
	defer m.Close()
	if err := m.AddTenant("t", TenantConfig{Graph: g, Model: stopandstare.IC, Session: opt}); err != nil {
		t.Fatal(err)
	}

	q := stopandstare.Query{K: 10, Epsilon: 0.25}
	// The equivalent queries below must share the leader's flight: they
	// only differ in defaulted fields (algorithm "", epsilon 0).
	variants := []stopandstare.Query{
		q,
		{Algorithm: stopandstare.DSSA, K: 10, Epsilon: 0.25},
	}

	results := make([]*stopandstare.Result, followers+1)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := m.Maximize(context.Background(), "t", variants[i%len(variants)])
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st := m.Stats()
	if st.Executed != 1 || st.Coalesced != followers {
		t.Fatalf("executed=%d coalesced=%d, want 1/%d", st.Executed, st.Coalesced, followers)
	}
	nCoalesced := 0
	for i, res := range results {
		if res.Coalesced {
			nCoalesced++
		}
		sameAnswer(t, "query "+string(rune('0'+i)), res, results[0])
	}
	if nCoalesced != followers {
		t.Fatalf("%d responses flagged Coalesced, want %d", nCoalesced, followers)
	}

	// Exactly the top-ups of one cold run: the twin runs the same query
	// solo and must report the same growth count as the shared session.
	twin, err := stopandstare.NewSession(g, stopandstare.IC, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Maximize(q)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "vs cold twin", results[0], want)
	if tw, mg := twin.Stats().Growths, tenantSession(t, m, "t").Growths; mg != tw {
		t.Fatalf("coalesced session growths %d != single cold run growths %d", mg, tw)
	}
}

// TestCoalescedSeedsNotAliased is the regression test for follower results
// sharing the leader's Seeds backing array: a caller mutating its own
// response (re-ranking, truncating in place) must not corrupt what every
// other caller of the same coalesced flight received. On the old shallow
// copy, the mutation below wrote through to the leader and every sibling.
func TestCoalescedSeedsNotAliased(t *testing.T) {
	g := testGraph(t, 9)
	const followers = 3

	var m *Manager
	m = NewManager(Config{
		MaxInFlight: 2,
		OnExecute: func(string) {
			deadline := time.Now().Add(10 * time.Second)
			for m.Stats().Coalesced < followers {
				if time.Now().After(deadline) {
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		},
	})
	defer m.Close()
	if err := m.AddTenant("t", TenantConfig{
		Graph: g, Model: stopandstare.IC,
		Session: stopandstare.SessionOptions{Seed: 21, Workers: 2},
	}); err != nil {
		t.Fatal(err)
	}

	q := stopandstare.Query{K: 8, Epsilon: 0.25}
	results := make([]*stopandstare.Result, followers+1)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := m.Maximize(context.Background(), "t", q)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if st := m.Stats(); st.Coalesced != followers {
		t.Fatalf("coalesced=%d, want %d (flight did not coalesce)", st.Coalesced, followers)
	}

	pristine := slices.Clone(results[0].Seeds)
	victim := -1
	for i, res := range results {
		if res.Coalesced {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no coalesced response to mutate")
	}
	for j := range results[victim].Seeds {
		results[victim].Seeds[j] = ^uint32(0)
	}
	for i, res := range results {
		if i == victim {
			continue
		}
		if !slices.Equal(res.Seeds, pristine) {
			t.Fatalf("response %d corrupted by mutating response %d: %v, want %v",
				i, victim, res.Seeds, pristine)
		}
	}
}

// TestCoalescedFollowerOutlivesLeader pins that a follower does not inherit
// its leader's deadline: the leader runs under a 40 ms deadline and the
// OnExecute hook holds it for 80 ms, so it fails on its own context; the
// follower, joined with no deadline at all, must run the query again and
// answer exactly what a cold twin answers.
func TestCoalescedFollowerOutlivesLeader(t *testing.T) {
	g := testGraph(t, 9)
	opt := stopandstare.SessionOptions{Seed: 23, Workers: 2}
	var held atomic.Bool
	var m *Manager
	m = NewManager(Config{
		MaxInFlight: 2,
		OnExecute: func(string) {
			if held.Swap(true) {
				return // the follower's own execution runs unheld
			}
			deadline := time.Now().Add(10 * time.Second)
			for m.Stats().Coalesced < 1 && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			time.Sleep(80 * time.Millisecond)
		},
	})
	defer m.Close()
	if err := m.AddTenant("t", TenantConfig{Graph: g, Model: stopandstare.IC, Session: opt}); err != nil {
		t.Fatal(err)
	}
	q := stopandstare.Query{K: 8, Epsilon: 0.25}

	leaderErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
		defer cancel()
		_, err := m.Maximize(ctx, "t", q)
		leaderErr <- err
	}()
	// The leader holds its execution slot from before the hook runs, so
	// its flight is registered once InFlight reads 1.
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().InFlight < 1 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	got, err := m.Maximize(context.Background(), "t", q)
	if lerr := <-leaderErr; !errors.Is(lerr, context.DeadlineExceeded) {
		t.Fatalf("leader error %v, want its own deadline", lerr)
	}
	if err != nil {
		t.Fatalf("follower without a deadline failed with its leader: %v", err)
	}
	twin, err := stopandstare.NewSession(g, stopandstare.IC, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Maximize(q)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "retried follower vs cold twin", got, want)
	if st := m.Stats(); st.Queries != 2 || st.Executed != 2 || st.Coalesced != 1 {
		t.Fatalf("queries=%d executed=%d coalesced=%d, want 2/2/1", st.Queries, st.Executed, st.Coalesced)
	}
	// The leader's deadline fired inside its session query, after admission:
	// it was answered with a context error, so it counts as one 503.
	if st := m.Stats(); st.Timeout503 != 1 {
		t.Fatalf("timeout_503 = %d, want 1", st.Timeout503)
	}
}

// TestLazyGraphFileTenant checks a GraphFile tenant costs nothing until
// queried, opens on first query, and is fully released on removal.
func TestLazyGraphFileTenant(t *testing.T) {
	g := testGraph(t, 10)
	path := filepath.Join(t.TempDir(), "tenant.sasg")
	if err := g.WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{})
	defer m.Close()
	if err := m.AddTenant("lazy", TenantConfig{
		GraphFile: path, Model: stopandstare.IC,
		Session: stopandstare.SessionOptions{Seed: 3, Workers: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if st := tenantStats(t, m, "lazy"); st.Nodes != 0 || st.Resident {
		t.Fatalf("unqueried GraphFile tenant should hold nothing: %+v", st)
	}

	res, err := m.Maximize(context.Background(), "lazy", stopandstare.Query{K: 5, Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("got %d seeds, want 5", len(res.Seeds))
	}
	st := tenantStats(t, m, "lazy")
	if st.Nodes != g.NumNodes() || !st.Resident {
		t.Fatalf("queried tenant should hold the opened graph: %+v", st)
	}
	if total := st.GraphResidentBytes + st.GraphMappedBytes; total <= 0 {
		t.Fatalf("graph accounting empty after open: %+v", st.SessionStats)
	}

	if err := m.RemoveTenant("lazy"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Maximize(context.Background(), "lazy", stopandstare.Query{K: 5}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("query after removal: %v, want ErrUnknownTenant", err)
	}
}

// TestRetiredTenantStaysRetired: a tenant looked up before RemoveTenant (a
// query that had not yet raised inflight, or a StartRecovery pass) must not
// reopen its graph and build a session that nothing would close.
func TestRetiredTenantStaysRetired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenant.sasg")
	if err := testGraph(t, 12).WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{})
	defer m.Close()
	if err := m.AddTenant("gone", TenantConfig{
		GraphFile: path, Model: stopandstare.IC,
		Session: stopandstare.SessionOptions{Seed: 3, Workers: 1},
	}); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	ten := m.tenants["gone"]
	m.mu.Unlock()
	if err := m.RemoveTenant("gone"); err != nil {
		t.Fatal(err)
	}
	sess, err := ten.session()
	if !errors.Is(err, ErrUnknownTenant) || sess != nil {
		t.Fatalf("session() after retire: built %v, error %v; want ErrUnknownTenant", sess != nil, err)
	}
	if ten.g != nil {
		t.Fatal("session() after retire reopened the graph")
	}
}

func tenantStats(t *testing.T, m *Manager, name string) TenantStatsResponse {
	t.Helper()
	for _, ten := range m.Stats().Tenants {
		if ten.Name == name {
			return ten
		}
	}
	t.Fatalf("tenant %q not in stats", name)
	return TenantStatsResponse{}
}

// TestManagerConfigErrors exercises the admission bookkeeping edges.
func TestManagerConfigErrors(t *testing.T) {
	g := testGraph(t, 11)
	m := NewManager(Config{})
	cfg := TenantConfig{Graph: g, Model: stopandstare.IC, Session: stopandstare.SessionOptions{Seed: 1}}
	if err := m.AddTenant("", cfg); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	if err := m.AddTenant("x", TenantConfig{Model: stopandstare.IC}); err == nil {
		t.Fatal("tenant without graph source accepted")
	}
	if err := m.AddTenant("x", TenantConfig{Graph: g, GraphFile: "y", Model: stopandstare.IC}); err == nil {
		t.Fatal("tenant with two graph sources accepted")
	}
	if err := m.AddTenant("x", cfg); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTenant("x", cfg); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	if err := m.RemoveTenant("nope"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("removing unknown tenant: %v", err)
	}
	if got := m.Tenants(); !slices.Equal(got, []string{"x"}) {
		t.Fatalf("Tenants() = %v", got)
	}
	m.Close()
	if err := m.AddTenant("y", cfg); err == nil {
		t.Fatal("AddTenant after Close accepted")
	}
}

// TestEvictedSessionCollectedAfterOneGC is the serving leg of the root
// package's TestDroppedSessionCollectedAfterOneGC: once the budget evicts a
// tenant, nothing the manager keeps — the tenant, the coalescing table, the
// admission gate — holds its session, so the first GC frees its stores.
func TestEvictedSessionCollectedAfterOneGC(t *testing.T) {
	m := NewManager(Config{BudgetBytes: 1})
	defer m.Close()
	for i, name := range []string{"a", "b"} {
		cfg := TenantConfig{Graph: testGraph(t, uint64(7+i)), Model: stopandstare.IC,
			Session: stopandstare.SessionOptions{Seed: uint64(11 + i), Workers: 2}}
		if err := m.AddTenant(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, algo := range []stopandstare.Algorithm{stopandstare.DSSA, stopandstare.SSA} {
		if _, err := m.Maximize(ctx, "a", stopandstare.Query{Algorithm: algo, K: 5, Epsilon: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	collected := make(chan struct{})
	m.mu.Lock()
	a := m.tenants["a"]
	m.mu.Unlock()
	a.mu.Lock()
	runtime.SetFinalizer(a.sess, func(*stopandstare.Session) { close(collected) })
	a.mu.Unlock()
	// Querying b with a idle evicts a under the 1-byte budget.
	if _, err := m.Maximize(ctx, "b", stopandstare.Query{K: 5, Epsilon: 0.3}); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	evicted := a.sess == nil
	a.mu.Unlock()
	if !evicted {
		t.Fatal("tenant a was not evicted under a 1-byte budget")
	}
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(2 * time.Second):
		t.Fatal("an evicted tenant's session outlived one GC")
	}
}
