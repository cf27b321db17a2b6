package ris

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

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
// plain, weighted, verification, separately constructed, racing first uses
// — share one compiled plan, and a sampler made afterwards finds it on the
// graph without compiling.
func TestPlanCacheSharedAcrossSamplers(t *testing.T) {
	g := cacheGraph(t, 301)
	weights := make([]float64, g.NumNodes())
	for v := range weights {
		weights[v] = 1 + float64(v%3)
	}
	s1, err := NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	if s1.PlanBytes() != 0 {
		t.Fatal("fresh graph already holds a compiled plan")
	}
	s2, err := NewWeightedSampler(g, diffusion.IC, weights)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	samplers := []*Sampler{s1, s2, s3, s1.VerifySampler()}

	// Race the first compilation from every sampler at once.
	var wg sync.WaitGroup
	plans := make([]*Plan, len(samplers)*4)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i] = samplers[i%len(samplers)].mustPlan()
		}(i)
	}
	wg.Wait()
	for i, p := range plans {
		if p == nil || p != plans[0] {
			t.Fatalf("plan %d is not the shared instance", i)
		}
	}
	// PlanBytes on every sampler reports the shared plan, and a later
	// sampler sees it before forcing anything.
	late, err := NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range append(samplers, late) {
		if s.PlanBytes() != plans[0].Bytes() {
			t.Fatalf("sampler %d PlanBytes %d != %d", i, s.PlanBytes(), plans[0].Bytes())
		}
	}
	if late.mustPlan() != plans[0] {
		t.Fatal("a later sampler compiled its own plan")
	}
}

// TestPlanCollectedWithGraph: compiled plans live on their graph, so an
// unreferenced graph holding compiled IC and LT plans is collected; no call
// is needed to release it.
func TestPlanCollectedWithGraph(t *testing.T) {
	collected := make(chan struct{})
	func() {
		g := cacheGraph(t, 307)
		for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
			s, err := NewSampler(g, model)
			if err != nil {
				t.Fatal(err)
			}
			if s.mustPlan() == nil || s.PlanBytes() <= 0 {
				t.Fatalf("%v: no plan compiled", model)
			}
		}
		runtime.SetFinalizer(g, func(*graph.Graph) { close(collected) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a graph with compiled plans stayed reachable after its last reference was dropped")
}

// TestPlanCacheKeying: different models and different graphs get distinct
// plans; DropPlans makes future samplers recompile while existing samplers
// keep their plan.
func TestPlanCacheKeying(t *testing.T) {
	g1 := cacheGraph(t, 303)
	g2 := cacheGraph(t, 305)

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
	pIC, pLT, pG2 := sIC.mustPlan(), sLT.mustPlan(), sG2.mustPlan()
	if pIC == pLT || pIC == pG2 {
		t.Fatal("distinct (graph, model) keys shared a plan")
	}
	if pLT.Model() != diffusion.LT || pIC.Model() != diffusion.IC {
		t.Fatal("a plan compiled for the wrong model")
	}

	g1.DropPlans()
	// The old sampler keeps working with its plan; a new sampler finds no
	// plan on the graph and compiles a fresh one, which later samplers share.
	if sIC.mustPlan() != pIC {
		t.Fatal("existing sampler lost its plan on DropPlans")
	}
	sNew, err := NewSampler(g1, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	if sNew.PlanBytes() != 0 {
		t.Fatal("DropPlans left a compiled plan on the graph")
	}
	pNew := sNew.mustPlan()
	if pNew == pIC {
		t.Fatal("post-drop sampler reused the dropped plan")
	}
	sNext, err := NewSampler(g1, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	if sNext.mustPlan() != pNew {
		t.Fatal("samplers after the recompile do not share it")
	}
	if _, err := NewSampler(g1, diffusion.Model(7)); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestPlanCacheMappedGraph: a graph opened from a .sasg mapping holds its
// plans exactly like a heap graph — per *graph.Graph — so two samplers on
// the same mapped graph share one compilation, and the heap graph it was
// written from has its own.
func TestPlanCacheMappedGraph(t *testing.T) {
	heap := cacheGraph(t, 905)
	path := filepath.Join(t.TempDir(), "cache.sasg")
	if err := heap.WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	s1, err := NewSampler(mapped, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSampler(mapped, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	if s1.mustPlan() != s2.mustPlan() {
		t.Fatal("two samplers on one mapped graph compiled distinct plans")
	}
	if s2.PlanBytes() <= 0 {
		t.Fatal("mapped graph's plan reports no bytes")
	}
	// The heap original is a different graph value: nothing leaked across.
	sh, err := NewSampler(heap, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	if sh.PlanBytes() != 0 {
		t.Fatal("heap twin holds a plan before any sampler on it compiled one")
	}
}
