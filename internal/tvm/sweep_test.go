package tvm

import (
	"errors"
	"testing"

	"stopandstare/internal/diffusion"
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
// entry must equal a standalone BudgetedMaximize at that budget (the
// one-budget special case goes through the same path).
func TestBudgetedSweepMatchesSingleSolves(t *testing.T) {
	inst := topicInstance(t, 400, 2000, 131)
	opt := BudgetedOptions{Epsilon: 0.3, Seed: 137, Workers: 2, Samples: 6000}
	budgets := []float64{9, 3, 3, 27}
	results, err := BudgetedSweep(inst, diffusion.IC, budgets, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range budgets {
		single, err := BudgetedMaximize(inst, diffusion.IC, BudgetedOptions{
			Budget: b, Epsilon: 0.3, Seed: 137, Workers: 2, Samples: 6000,
		})
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
	if _, err := BudgetedSweep(inst, diffusion.IC, []float64{5}, BudgetedOptions{Epsilon: 3}); err == nil {
		t.Fatal("epsilon out of range should fail")
	}
}
