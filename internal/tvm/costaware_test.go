package tvm

import (
	"errors"
	"math"
	"testing"

	"stopandstare/internal/core"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

// budgetedMaximize is the one-budget BudgetedSweep.
func budgetedMaximize(t *Instance, model diffusion.Model, budget float64, opt BudgetedOptions) (*BudgetedResult, error) {
	res, err := BudgetedSweep(t, model, []float64{budget}, opt)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

func TestBudgetedMaximizeBasic(t *testing.T) {
	inst := topicInstance(t, 800, 4000, 61)
	n := inst.G.NumNodes()
	costs := make([]float64, n)
	for v := range costs {
		costs[v] = float64(v%4) + 1
	}
	res, err := budgetedMaximize(inst, diffusion.LT, 20, BudgetedOptions{
		Costs: costs, Epsilon: 0.3, Seed: 67, Workers: 2, Samples: 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 20+1e-9 {
		t.Fatalf("budget exceeded: %v", res.Cost)
	}
	if len(res.Seeds) == 0 || res.Benefit <= 0 || res.Benefit > inst.Gamma {
		t.Fatalf("degenerate result: %+v", res)
	}
	// The sampled benefit estimate must agree with weighted MC.
	mc, se, err := inst.Benefit(diffusion.LT, res.Seeds, 30000, 71, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Benefit-mc) > 0.2*mc+5*se {
		t.Fatalf("benefit est %.2f vs MC %.2f±%.2f", res.Benefit, mc, se)
	}
}

func TestBudgetedMaximizeValidation(t *testing.T) {
	inst := topicInstance(t, 200, 1000, 73)
	if _, err := budgetedMaximize(inst, diffusion.IC, 0, BudgetedOptions{}); !errors.Is(err, ErrBadBudget) {
		t.Fatalf("zero budget: %v", err)
	}
	if _, err := budgetedMaximize(inst, diffusion.IC, 5, BudgetedOptions{Epsilon: 2}); err == nil {
		t.Fatal("epsilon out of range should fail")
	}
}

func TestBudgetedMaximizeDefaultSamples(t *testing.T) {
	inst := topicInstance(t, 300, 1500, 79)
	res, err := budgetedMaximize(inst, diffusion.IC, 5, BudgetedOptions{
		Epsilon: 0.4, Seed: 83, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples <= 0 {
		t.Fatal("default sample derivation produced nothing")
	}
}

func TestBudgetedMonotoneInBudget(t *testing.T) {
	inst := topicInstance(t, 600, 3000, 89)
	prev := -1.0
	for _, b := range []float64{1, 4, 16} {
		res, err := budgetedMaximize(inst, diffusion.LT, b, BudgetedOptions{
			Epsilon: 0.3, Seed: 97, Workers: 2, Samples: 20000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Benefit < prev*0.98 { // tiny tolerance for sampling noise
			t.Fatalf("benefit decreased at budget %v: %.2f < %.2f", b, res.Benefit, prev)
		}
		prev = res.Benefit
	}
}

func TestBudgetedUnitCostsMatchCardinalityTVM(t *testing.T) {
	// With unit costs and budget k, budgeted TVM should roughly match
	// D-SSA's benefit at the same k (same selection family).
	inst := topicInstance(t, 800, 4000, 101)
	k := 8
	bud, err := budgetedMaximize(inst, diffusion.LT, float64(k), BudgetedOptions{
		Epsilon: 0.2, Seed: 103, Workers: 2, Samples: 40000,
	})
	if err != nil {
		t.Fatal(err)
	}
	dssa, err := runDSSA(inst, diffusion.LT, coreOptions(k))
	if err != nil {
		t.Fatal(err)
	}
	bb, _, _ := inst.Benefit(diffusion.LT, bud.Seeds, 20000, 107, 2)
	bd, _, _ := inst.Benefit(diffusion.LT, dssa.Seeds, 20000, 107, 2)
	if bb < 0.85*bd {
		t.Fatalf("budgeted (%.2f) far below D-SSA (%.2f) at equal k", bb, bd)
	}
}

// TestSampleSizeMonotoneInBudget: with unit costs and equal weights (so
// the OPT lower bound is budget-independent), the derived θ must not shrink
// as the budget grows — more affordable seeds mean more feasible sets to
// union-bound over, up to every subset, and a huge budget must not
// overflow the affordable-seed count.
func TestSampleSizeMonotoneInBudget(t *testing.T) {
	g, err := gen.ChungLu(240, 1500, 2.1, 55, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	weights := make([]float64, n)
	for v := range weights {
		weights[v] = 1
	}
	inst, err := NewInstance(g, weights)
	if err != nil {
		t.Fatal(err)
	}
	opt := BudgetedOptions{}
	if err := opt.normalize(n); err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, b := range []float64{1, float64(n) / 4, float64(n) / 2, float64(n), 10 * float64(n), 1e19} {
		theta := inst.sampleSize(opt, b)
		if theta < prev {
			t.Fatalf("θ shrank to %d at budget %v (was %d)", theta, b, prev)
		}
		prev = theta
	}
}

func coreOptions(k int) core.Options {
	return core.Options{K: k, Epsilon: 0.2, Seed: 103, Workers: 2}
}
