package tvm

import (
	"slices"
	"sync"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
)

func sessionInstance(t *testing.T) (*Instance, []float64) {
	t.Helper()
	g, err := gen.ChungLu(240, 1500, 2.1, 55, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.NumNodes())
	for v := range weights {
		weights[v] = float64(v%6) + 0.5
	}
	inst, err := NewInstance(g, weights)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, g.NumNodes())
	for v := range costs {
		costs[v] = float64((v*5)%4) + 1
	}
	return inst, costs
}

// TestBudgetedSessionMatchesColdSolves: a warm BudgetedSession serving
// budgets in arbitrary order (up, down, repeated) returns, for every
// budget, exactly the from-scratch GreedyBudgeted solution over that
// budget's own sample prefix — query history must be unobservable.
func TestBudgetedSessionMatchesColdSolves(t *testing.T) {
	inst, costs := sessionInstance(t)
	opt := BudgetedOptions{Costs: costs, Epsilon: 0.3, Seed: 19, Workers: 2, Samples: 2500}
	bs, err := NewBudgetedSession(inst, diffusion.IC, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Cold reference store: same sampler stream, solved from scratch.
	s, err := inst.Sampler(diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	refCol := ris.NewStore(s, opt.Seed, ris.StoreOptions{Workers: 2})
	refCol.GenerateTo(opt.Samples)

	for _, budget := range []float64{12, 4, 40, 12, 4, 25} {
		got, err := bs.Maximize(budget)
		if err != nil {
			t.Fatal(err)
		}
		want := maxcover.GreedyBudgeted(refCol, opt.Samples, costs, budget)
		if !slices.Equal(got.Seeds, want.Seeds) || got.Cost != want.Cost ||
			got.Samples != int64(want.Upto) {
			t.Fatalf("budget %v: session %v/%v/%d vs cold %v/%v/%d", budget,
				got.Seeds, got.Cost, got.Samples, want.Seeds, want.Cost, int64(want.Upto))
		}
	}
	if bs.Samples() != opt.Samples {
		t.Fatalf("store grew to %d, want pinned %d", bs.Samples(), opt.Samples)
	}
}

// TestBudgetedSessionDerivedThresholds: without pinned Samples the store
// tops up to each budget's derived θ and never shrinks; every result still
// matches a cold solve at that prefix.
func TestBudgetedSessionDerivedThresholds(t *testing.T) {
	if testing.Short() {
		t.Skip("derived thresholds generate larger streams")
	}
	inst, costs := sessionInstance(t)
	opt := BudgetedOptions{Costs: costs, Epsilon: 0.4, Seed: 23, Workers: 2}
	bs, err := NewBudgetedSession(inst, diffusion.IC, opt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := inst.Sampler(diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	refCol := ris.NewStore(s, opt.Seed, ris.StoreOptions{Workers: 2})
	prev := 0
	for _, budget := range []float64{6, 30, 6} {
		got, err := bs.Maximize(budget)
		if err != nil {
			t.Fatal(err)
		}
		theta := inst.sampleSize(bs.opt, budget)
		refCol.GenerateTo(theta)
		want := maxcover.GreedyBudgeted(refCol, theta, costs, budget)
		if !slices.Equal(got.Seeds, want.Seeds) || got.Samples != int64(want.Upto) {
			t.Fatalf("budget %v: session %v/%d vs cold %v/%d", budget,
				got.Seeds, got.Samples, want.Seeds, int64(want.Upto))
		}
		if bs.Samples() < prev {
			t.Fatalf("store shrank: %d -> %d", prev, bs.Samples())
		}
		prev = bs.Samples()
	}
}

// TestBudgetedSessionConcurrent races mixed budget queries (growing and
// read-only) on one session; every replica must match its cold solve.
// Runs under the CI -race step.
func TestBudgetedSessionConcurrent(t *testing.T) {
	inst, costs := sessionInstance(t)
	opt := BudgetedOptions{Costs: costs, Epsilon: 0.3, Seed: 29, Workers: 2, Samples: 2000}
	bs, err := NewBudgetedSession(inst, diffusion.LT, opt)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []float64{3, 9, 27, 9, 3, 81}
	const replicas = 2
	results := make([][]*BudgetedResult, len(budgets))
	var wg sync.WaitGroup
	for bi, b := range budgets {
		results[bi] = make([]*BudgetedResult, replicas)
		for rep := 0; rep < replicas; rep++ {
			wg.Add(1)
			go func(bi, rep int, b float64) {
				defer wg.Done()
				res, err := bs.Maximize(b)
				if err != nil {
					t.Errorf("budget %v: %v", b, err)
					return
				}
				results[bi][rep] = res
			}(bi, rep, b)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s, err := inst.Sampler(diffusion.LT)
	if err != nil {
		t.Fatal(err)
	}
	refCol := ris.NewStore(s, opt.Seed, ris.StoreOptions{Workers: 2})
	refCol.GenerateTo(opt.Samples)
	for bi, b := range budgets {
		want := maxcover.GreedyBudgeted(refCol, opt.Samples, costs, b)
		for rep, got := range results[bi] {
			if !slices.Equal(got.Seeds, want.Seeds) || got.Cost != want.Cost {
				t.Fatalf("budget %v rep %d: %v/%v vs cold %v/%v", b, rep,
					got.Seeds, got.Cost, want.Seeds, want.Cost)
			}
		}
	}
}

// TestBudgetedSessionRejectsBadBudget covers the validation path.
func TestBudgetedSessionRejectsBadBudget(t *testing.T) {
	inst, costs := sessionInstance(t)
	bs, err := NewBudgetedSession(inst, diffusion.IC, BudgetedOptions{
		Costs: costs, Epsilon: 0.3, Seed: 1, Workers: 1, Samples: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs.Maximize(0); err == nil {
		t.Fatal("budget 0 accepted")
	}
	if _, err := bs.Maximize(-3); err == nil {
		t.Fatal("negative budget accepted")
	}
}
