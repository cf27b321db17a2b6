package ris

import (
	"path/filepath"
	"sync"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

func cacheGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.ChungLu(150, 700, 2.1, seed, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPlanCacheSharedAcrossSamplers: all samplers on one (graph, model) —
// plain, weighted, separately constructed, racing first uses — share one
// compiled plan, and the registry counts exactly one compilation.
func TestPlanCacheSharedAcrossSamplers(t *testing.T) {
	g := cacheGraph(t, 301)
	defer DropCachedPlans(g)

	if n := PlanCompilations(g, diffusion.IC); n != 0 {
		t.Fatalf("fresh graph: %d compilations", n)
	}
	weights := make([]float64, g.NumNodes())
	for v := range weights {
		weights[v] = 1 + float64(v%3)
	}
	s1, err := NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewWeightedSampler(g, diffusion.IC, weights)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	samplers := []*Sampler{s1, s2, s3}

	// Race the first compilation from every sampler at once.
	var wg sync.WaitGroup
	plans := make([]*Plan, len(samplers)*4)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i] = samplers[i%len(samplers)].Plan()
		}(i)
	}
	wg.Wait()
	for i, p := range plans {
		if p == nil || p != plans[0] {
			t.Fatalf("plan %d is not the shared instance", i)
		}
	}
	if n := PlanCompilations(g, diffusion.IC); n != 1 {
		t.Fatalf("compiled %d times, want 1", n)
	}
	if got := CachedPlanBytes(g, diffusion.IC); got != plans[0].Bytes() {
		t.Fatalf("CachedPlanBytes %d != plan bytes %d", got, plans[0].Bytes())
	}
	// PlanBytes on every sampler reports the shared plan.
	for i, s := range samplers {
		if s.PlanBytes() != plans[0].Bytes() {
			t.Fatalf("sampler %d PlanBytes %d != %d", i, s.PlanBytes(), plans[0].Bytes())
		}
	}
}

// TestPlanCacheBounded: the registry is an LRU capped at planCacheLimit
// keys, so a process churning throwaway graphs cannot pin graphs and plans
// without bound; evicted entries keep working for samplers already holding
// them.
func TestPlanCacheBounded(t *testing.T) {
	g0 := cacheGraph(t, 401)
	s0, err := NewSampler(g0, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	p0 := s0.Plan()
	if n := PlanCompilations(g0, diffusion.IC); n != 1 {
		t.Fatalf("g0 compiled %d times, want 1", n)
	}
	// Churn enough distinct graphs through the registry to evict g0.
	churn := make([]*graph.Graph, 0, planCacheLimit+8)
	for i := 0; i < planCacheLimit+8; i++ {
		g, err := gen.ChungLu(40, 120, 2.1, uint64(500+i), graph.BuildOptions{Model: graph.WeightedCascade})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewSampler(g, diffusion.IC); err != nil {
			t.Fatal(err)
		}
		churn = append(churn, g)
	}
	defer func() {
		for _, g := range churn {
			DropCachedPlans(g)
		}
	}()
	if n := PlanCompilations(g0, diffusion.IC); n != 0 {
		t.Fatalf("g0 should have been evicted by churn, registry still reports %d compilations", n)
	}
	// The most recent churn graphs must still be resident.
	if _, ok := lookupPlanCache(churn[len(churn)-1], diffusion.IC); !ok {
		t.Fatal("most recent key evicted")
	}
	// The evicted sampler keeps its compiled plan.
	if s0.Plan() != p0 {
		t.Fatal("evicted sampler lost its plan")
	}
}

// TestPlanCacheKeying: different models and different graphs get distinct
// entries; eviction releases the key and future samplers recompile while
// existing samplers keep their plan.
func TestPlanCacheKeying(t *testing.T) {
	g1 := cacheGraph(t, 303)
	g2 := cacheGraph(t, 305)
	defer DropCachedPlans(g1)
	defer DropCachedPlans(g2)

	sIC, err := NewSampler(g1, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	sLT, err := NewSampler(g1, diffusion.LT)
	if err != nil {
		t.Fatal(err)
	}
	sG2, err := NewSampler(g2, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	pIC, pLT, pG2 := sIC.Plan(), sLT.Plan(), sG2.Plan()
	if pIC == pLT || pIC == pG2 {
		t.Fatal("distinct (graph, model) keys shared a plan")
	}
	if PlanCompilations(g1, diffusion.IC) != 1 || PlanCompilations(g1, diffusion.LT) != 1 ||
		PlanCompilations(g2, diffusion.IC) != 1 {
		t.Fatal("each key must compile exactly once")
	}

	DropCachedPlans(g1)
	if n := PlanCompilations(g1, diffusion.IC); n != 0 {
		t.Fatalf("evicted key still reports %d compilations", n)
	}
	// The evicted sampler keeps working with its plan; a new sampler
	// recompiles into a fresh entry.
	if sIC.Plan() != pIC {
		t.Fatal("existing sampler lost its plan on eviction")
	}
	sNew, err := NewSampler(g1, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	if sNew.Plan() == pIC {
		t.Fatal("post-eviction sampler reused the evicted entry")
	}
	if n := PlanCompilations(g1, diffusion.IC); n != 1 {
		t.Fatalf("recompiled entry reports %d compilations, want 1", n)
	}
}

// TestPlanCacheMappedGraph: a graph opened from a .sasg mapping keys the
// plan cache exactly like a heap graph — by *graph.Graph identity — so two
// samplers on the same mapped graph share one compilation, and the cache
// never confuses a mapped graph with the heap graph it was written from.
func TestPlanCacheMappedGraph(t *testing.T) {
	heap := cacheGraph(t, 905)
	defer DropCachedPlans(heap)
	path := filepath.Join(t.TempDir(), "cache.sasg")
	if err := heap.WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	defer DropCachedPlans(mapped)

	s1, err := NewSampler(mapped, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSampler(mapped, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Plan() != s2.Plan() {
		t.Fatal("two samplers on one mapped graph compiled distinct plans")
	}
	if n := PlanCompilations(mapped, diffusion.IC); n != 1 {
		t.Fatalf("mapped graph compiled %d times, want 1", n)
	}
	// Identity keying: the heap original is a different graph value, so it
	// gets its own entry — nothing leaked across the backends.
	if n := PlanCompilations(heap, diffusion.IC); n != 0 {
		t.Fatalf("heap twin reports %d compilations before any sampler", n)
	}
	if CachedPlanBytes(mapped, diffusion.IC) <= 0 {
		t.Fatal("mapped graph's cached plan reports no bytes")
	}
}
