package maxcover

import (
	"testing"

	"stopandstare/internal/ris"
)

func assertSameBudgeted(t *testing.T, ctx string, got, want BudgetedResult) {
	t.Helper()
	if got.Upto != want.Upto || got.Coverage != want.Coverage || got.Cost != want.Cost {
		t.Fatalf("%s: got upto=%d cov=%d cost=%v, want upto=%d cov=%d cost=%v",
			ctx, got.Upto, got.Coverage, got.Cost, want.Upto, want.Coverage, want.Cost)
	}
	if len(got.Seeds) != len(want.Seeds) {
		t.Fatalf("%s: got %d seeds, want %d", ctx, len(got.Seeds), len(want.Seeds))
	}
	for i := range got.Seeds {
		if got.Seeds[i] != want.Seeds[i] {
			t.Fatalf("%s: seed %d differs: got %d want %d", ctx, i, got.Seeds[i], want.Seeds[i])
		}
	}
}

// budgetSweeps are the sweep shapes the solver identity runs over:
// ascending, descending, duplicated, and mixed (including budgets below the
// cheapest cost and far above saturation).
var budgetSweeps = [][]float64{
	{1, 2, 4, 8, 16, 32},
	{32, 16, 8, 4, 2, 1},
	{5, 5, 5, 5},
	{7, 0.5, 7, 100, 3, 100, 0.5},
}

// TestBudgetedSolverMatchesGreedySweeps is the core sweep contract: one
// BudgetedSolver solving a sweep of budgets returns bit-identical
// Seeds/Coverage/Cost to a from-scratch GreedyBudgeted per budget, in any
// budget order, at the full stream and at a prefix shorter than it.
func TestBudgetedSolverMatchesGreedySweeps(t *testing.T) {
	col := buildCollection(t, 60, 400, 900, 33)
	costs := make([]float64, 60)
	for v := range costs {
		costs[v] = float64(v%4)*0.75 + 0.5
	}
	for _, upto := range []int{col.Len(), 250} {
		for si, sweep := range budgetSweeps {
			sol := NewBudgetedSolver(col, upto, costs)
			for bi, b := range sweep {
				got := sol.Solve(b)
				assertSameBudgeted(t, "sweep", got, GreedyBudgeted(col, upto, costs, b))
				if got.Upto != upto {
					t.Fatalf("sweep %d budget %d: upto %d want %d", si, bi, got.Upto, upto)
				}
			}
		}
	}
}

// countingStore counts the RR sets a solver visits through ForEachSet.
type countingStore struct {
	ris.Store
	visited int
}

func (c *countingStore) ForEachSet(from, to int, fn func(i int, set []uint32)) {
	c.Store.ForEachSet(from, to, func(i int, set []uint32) {
		c.visited++
		fn(i, set)
	})
}

// TestBudgetedSolverScansPrefixOnce pins the one-scan property a sweep
// exists for: N solves on one solver read exactly upto sets through
// ForEachSet — the construction-time gain count — however many budgets
// follow.
func TestBudgetedSolverScansPrefixOnce(t *testing.T) {
	col := &countingStore{Store: buildCollection(t, 50, 300, 800, 37)}
	const upto = 600
	sol := NewBudgetedSolver(col, upto, nil)
	for _, b := range []float64{1, 4, 16, 4, 64, 0} {
		sol.Solve(b)
	}
	if col.visited != upto {
		t.Fatalf("ForEachSet visited %d sets over 6 solves, want %d", col.visited, upto)
	}
}

// TestBudgetedSolverNilAndShortCosts covers the cost-defaulting contract
// (nil slice, short slice: missing entries cost 1) matching GreedyBudgeted.
func TestBudgetedSolverNilAndShortCosts(t *testing.T) {
	col := buildCollection(t, 30, 200, 500, 49)
	short := []float64{2, 0, 3, -1} // holes and the short tail default to 1
	for _, costs := range [][]float64{nil, short} {
		sol := NewBudgetedSolver(col, col.Len(), costs)
		for _, b := range []float64{1, 4, 9} {
			assertSameBudgeted(t, "costs-default",
				sol.Solve(b), GreedyBudgeted(col, col.Len(), costs, b))
		}
	}
}

// TestBudgetedSolverZeroBudget must select nothing and leave state clean.
func TestBudgetedSolverZeroBudget(t *testing.T) {
	col := buildCollection(t, 20, 100, 200, 53)
	sol := NewBudgetedSolver(col, col.Len(), nil)
	res := sol.Solve(0)
	if len(res.Seeds) != 0 || res.Coverage != 0 || res.Cost != 0 {
		t.Fatalf("zero budget must select nothing: %+v", res)
	}
	// State must be untouched enough that a real solve still matches.
	assertSameBudgeted(t, "after-zero",
		sol.Solve(8), GreedyBudgeted(col, col.Len(), nil, 8))
}

// sweepBudgets is the budget list shared by the sweep benchmarks.
var sweepBudgets = []float64{5, 10, 20, 40, 80, 160}

// BenchmarkBudgetSweepRescan is the naive sweep: a from-scratch
// GreedyBudgeted per budget, each rescanning the entire stream.
func BenchmarkBudgetSweepRescan(b *testing.B) {
	col := buildBenchCollection(b)
	costs := make([]float64, col.NumNodes())
	for v := range costs {
		costs[v] = float64(v%5) + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bud := range sweepBudgets {
			GreedyBudgeted(col, col.Len(), costs, bud)
		}
	}
}

// BenchmarkBudgetSweepIncremental is the same sweep through one
// BudgetedSolver: the stream is scanned once, each budget is selection
// only.
func BenchmarkBudgetSweepIncremental(b *testing.B) {
	col := buildBenchCollection(b)
	costs := make([]float64, col.NumNodes())
	for v := range costs {
		costs[v] = float64(v%5) + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := NewBudgetedSolver(col, col.Len(), costs)
		for _, bud := range sweepBudgets {
			sol.Solve(bud)
		}
	}
}
