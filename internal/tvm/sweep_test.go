package tvm

import (
	"errors"
	"math"
	"slices"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
)

// TestBudgetedSweepMatchesGreedyPerBudget pins the sweep's identity
// contract: for every budget order (ascending, descending, duplicated,
// mixed), each sweep entry is bit-identical to maxcover.GreedyBudgeted
// over the same shared collection.
func TestBudgetedSweepMatchesGreedyPerBudget(t *testing.T) {
	inst := topicInstance(t, 500, 2500, 113)
	n := inst.G.NumNodes()
	costs := make([]float64, n)
	for v := range costs {
		costs[v] = float64(v%4) + 1
	}
	opt := BudgetedOptions{Costs: costs, Epsilon: 0.3, Seed: 127, Workers: 2, Samples: 8000}
	sweeps := [][]float64{
		{2, 5, 11, 23},
		{23, 11, 5, 2},
		{7, 7, 7},
		{3, 30, 3, 0.5, 30},
	}
	// Reference collection: identical to the one the sweep builds (same
	// sampler, seed, and sample count — the largest budget sizes it, but
	// Samples pins it here).
	s, err := inst.Sampler(diffusion.LT)
	if err != nil {
		t.Fatal(err)
	}
	refCol := ris.NewStore(s, opt.Seed, ris.StoreOptions{Workers: opt.Workers})
	refCol.GenerateTo(opt.Samples)
	for si, sweep := range sweeps {
		results, err := BudgetedSweep(inst, diffusion.LT, sweep, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(sweep) {
			t.Fatalf("sweep %d: %d results for %d budgets", si, len(results), len(sweep))
		}
		for bi, res := range results {
			if res.Budget != sweep[bi] {
				t.Fatalf("sweep %d entry %d: budget %v, want %v", si, bi, res.Budget, sweep[bi])
			}
			want := maxcover.GreedyBudgeted(refCol, refCol.Len(), costs, sweep[bi])
			if res.Cost != want.Cost || res.Samples != int64(want.Upto) ||
				res.Benefit != want.Influence(inst.Gamma) {
				t.Fatalf("sweep %d budget %v: got cost=%v benefit=%v samples=%d, want cost=%v benefit=%v upto=%d",
					si, sweep[bi], res.Cost, res.Benefit, res.Samples,
					want.Cost, want.Influence(inst.Gamma), want.Upto)
			}
			if len(res.Seeds) != len(want.Seeds) {
				t.Fatalf("sweep %d budget %v: %d seeds, want %d", si, sweep[bi], len(res.Seeds), len(want.Seeds))
			}
			for i := range res.Seeds {
				if res.Seeds[i] != want.Seeds[i] {
					t.Fatalf("sweep %d budget %v: seed %d differs", si, sweep[bi], i)
				}
			}
		}
	}
}

// TestBudgetedSweepMatchesSingleSolves: with Samples pinned, each sweep
// entry must equal a one-budget sweep at that budget.
func TestBudgetedSweepMatchesSingleSolves(t *testing.T) {
	inst := topicInstance(t, 400, 2000, 131)
	opt := BudgetedOptions{Epsilon: 0.3, Seed: 137, Workers: 2, Samples: 6000}
	budgets := []float64{9, 3, 3, 27}
	results, err := BudgetedSweep(inst, diffusion.IC, budgets, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range budgets {
		single, err := budgetedMaximize(inst, diffusion.IC, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Cost != single.Cost || results[i].Benefit != single.Benefit ||
			len(results[i].Seeds) != len(single.Seeds) {
			t.Fatalf("budget %v: sweep %+v vs single %+v", b, results[i], single)
		}
	}
}

// TestBudgetedSweepValidation covers the error paths.
func TestBudgetedSweepValidation(t *testing.T) {
	inst := topicInstance(t, 200, 1000, 139)
	if _, err := BudgetedSweep(inst, diffusion.IC, nil, BudgetedOptions{}); !errors.Is(err, ErrNoBudgets) {
		t.Fatalf("empty sweep: %v", err)
	}
	if _, err := BudgetedSweep(inst, diffusion.IC, []float64{5, -1}, BudgetedOptions{}); !errors.Is(err, ErrBadBudget) {
		t.Fatalf("negative budget: %v", err)
	}
	for _, bad := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := BudgetedSweep(inst, diffusion.IC, []float64{5, bad}, BudgetedOptions{}); !errors.Is(err, ErrBadBudget) {
			t.Fatalf("budget %v: %v", bad, err)
		}
	}
	if _, err := BudgetedSweep(inst, diffusion.IC, []float64{5}, BudgetedOptions{Epsilon: 3}); err == nil {
		t.Fatal("epsilon out of range should fail")
	}
}

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

// TestBudgetedSweepDerivedThresholds: without pinned Samples the sweep is
// sized at the largest derived θ over its budgets, and every entry matches
// a cold GreedyBudgeted at that prefix.
func TestBudgetedSweepDerivedThresholds(t *testing.T) {
	if testing.Short() {
		t.Skip("derived thresholds generate larger streams")
	}
	inst, costs := sessionInstance(t)
	opt := BudgetedOptions{Costs: costs, Epsilon: 0.4, Seed: 23, Workers: 2}
	budgets := []float64{6, 30, 6}
	got, err := BudgetedSweep(inst, diffusion.IC, budgets, opt)
	if err != nil {
		t.Fatal(err)
	}
	norm := opt
	if err := norm.normalize(inst.G.NumNodes()); err != nil {
		t.Fatal(err)
	}
	theta := 0
	for _, b := range budgets {
		theta = max(theta, inst.sampleSize(norm, b))
	}
	s, err := inst.Sampler(diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	refCol := ris.NewStore(s, opt.Seed, ris.StoreOptions{Workers: 2})
	refCol.GenerateTo(theta)
	for i, b := range budgets {
		want := maxcover.GreedyBudgeted(refCol, theta, costs, b)
		if !slices.Equal(got[i].Seeds, want.Seeds) || got[i].Samples != int64(want.Upto) {
			t.Fatalf("budget %v: sweep %v/%d vs cold %v/%d", b,
				got[i].Seeds, got[i].Samples, want.Seeds, int64(want.Upto))
		}
	}
}
