package tvm

import (
	"errors"
	"fmt"
	"math"
	"time"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
	"stopandstare/internal/stats"
)

// BudgetedOptions configures the cost-aware targeted viral marketing
// extension (the BCT problem of the authors' INFOCOM'16 companion, cited
// as [12] in the paper): maximise benefit B(S) subject to Σ cost(v) ≤ B.
// The budgets themselves are BudgetedSweep's argument.
type BudgetedOptions struct {
	// Costs[v] is the price of seeding v (entries ≤ 0 default to 1).
	Costs []float64
	// Epsilon/Delta as elsewhere; Delta 0 ⇒ 1/n.
	Epsilon float64
	Delta   float64
	Seed    uint64
	// Workers bounds sampling parallelism; ≤0 selects
	// runtime.GOMAXPROCS(0) (results are worker-count-independent).
	Workers int
	// Samples optionally fixes the number of WRIS samples; 0 derives an
	// Eq. 14-style threshold from the instance (see sampleSize).
	Samples int
}

// normalize validates and fills the stream fields in place.
func (o *BudgetedOptions) normalize(n int) error {
	if o.Delta == 0 {
		o.Delta = 1 / float64(n)
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.1
	}
	if !(o.Epsilon > 0 && o.Epsilon < 1) || !(o.Delta > 0 && o.Delta < 1) {
		return fmt.Errorf("tvm: epsilon/delta out of range (%v, %v)", o.Epsilon, o.Delta)
	}
	return nil
}

// BudgetedResult reports a cost-aware run.
type BudgetedResult struct {
	Seeds   []uint32
	Benefit float64 // Î estimate of B(S)
	Budget  float64 // the budget this solve was run under
	Cost    float64
	Samples int64
	Elapsed time.Duration
	Memory  int64
}

// Errors of the budgeted path.
var (
	ErrBadBudget = errors.New("tvm: budget must be positive and finite")
	ErrNoBudgets = errors.New("tvm: sweep needs at least one budget")
)

// sampleSize derives the WRIS sample count for a budget: the Eq. 14
// pattern with OPT lower-bounded by the largest single affordable benefit
// and the union bound over size-k sets replaced by one over every
// affordable set, of at most kMax seeds:
// ln Σ_{j≤kMax} C(n, j) ≤ ln C(n, min(kMax, n/2)) + ln(kMax+1),
// which never shrinks as the budget (and with it kMax) grows.
func (t *Instance) sampleSize(opt BudgetedOptions, budget float64) int {
	if opt.Samples > 0 {
		return opt.Samples
	}
	n := t.G.NumNodes()
	costOf := func(v int) float64 {
		if v < len(opt.Costs) && opt.Costs[v] > 0 {
			return opt.Costs[v]
		}
		return 1
	}
	// kMax: the most seeds any feasible solution can hold (cheapest-first).
	minCost := math.Inf(1)
	var optLB float64 // best affordable single-node benefit
	for v := 0; v < n; v++ {
		c := costOf(v)
		if c < minCost {
			minCost = c
		}
		if c <= budget && t.Weights[v] > optLB {
			optLB = t.Weights[v]
		}
	}
	// Clamp in float: int(budget/minCost) overflows for huge budgets.
	kMax := max(1, int(math.Min(budget/minCost, float64(n))))
	if optLB <= 0 {
		optLB = 1
	}
	lnSets := stats.LnChoose(n, min(kMax, n/2)) + math.Log(float64(kMax+1))
	theta := 4 * stats.OneMinusInvE * t.Gamma *
		(2*math.Log(2/opt.Delta) + lnSets) /
		(opt.Epsilon * opt.Epsilon * optLB)
	const hardCap = float64(1 << 30)
	if theta > hardCap {
		theta = hardCap
	}
	if theta < 1 {
		theta = 1
	}
	return int(theta)
}

// BudgetedSweep solves the budgeted TVM problem — WRIS sampling plus the
// Khuller–Moss–Naor ratio greedy, a (1−1/√e)-approximate selection on the
// sampled coverage instance — for every budget in the list against ONE WRIS
// sample. The sample is sized once at max_b sampleSize(b), so every budget
// gets at least the samples its standalone (ε, δ) guarantee requires (the
// threshold is not monotone in the budget: a larger budget can afford a
// higher-benefit single node, which shrinks its θ); BudgetedOptions.Samples
// pins it instead. One maxcover.BudgetedSolver counts gains over that
// prefix once, and each budget is then a selection pass proportional to its
// covered items. Each result is bit-identical to maxcover.GreedyBudgeted on
// the same collection, but a sweep over N budgets costs one scan instead
// of N. A single budget is the one-entry sweep.
//
// Budgets may arrive in any order (ascending, descending, duplicated);
// every entry must be positive and finite. Results are returned in input
// order, each carrying its Budget, the shared sample count, and the
// cumulative elapsed time at the point its solve finished.
func BudgetedSweep(t *Instance, model diffusion.Model, budgets []float64, opt BudgetedOptions) ([]*BudgetedResult, error) {
	start := time.Now()
	if len(budgets) == 0 {
		return nil, ErrNoBudgets
	}
	for _, b := range budgets {
		if !(b > 0) || math.IsInf(b, 1) {
			return nil, fmt.Errorf("%w (got %v)", ErrBadBudget, b)
		}
	}
	if err := opt.normalize(t.G.NumNodes()); err != nil {
		return nil, err
	}
	s, err := t.Sampler(model)
	if err != nil {
		return nil, err
	}
	if _, err := s.Plan(); err != nil { // a graph that fails the content checks
		return nil, err
	}
	samples := 0
	for _, b := range budgets {
		samples = max(samples, t.sampleSize(opt, b))
	}
	store := ris.NewStore(s, opt.Seed, ris.StoreOptions{Workers: opt.Workers})
	store.GenerateTo(samples)
	sol := maxcover.NewBudgetedSolver(store, samples, opt.Costs)
	out := make([]*BudgetedResult, len(budgets))
	for i, b := range budgets {
		mc := sol.Solve(b)
		out[i] = &BudgetedResult{
			Seeds:   mc.Seeds,
			Benefit: mc.Influence(t.Gamma),
			Budget:  b,
			Cost:    mc.Cost,
			Samples: int64(mc.Upto),
			Elapsed: time.Since(start),
			Memory:  store.Bytes(),
		}
	}
	return out, nil
}
