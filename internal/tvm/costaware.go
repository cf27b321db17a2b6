package tvm

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
	"stopandstare/internal/stats"
)

// BudgetedOptions configures the cost-aware targeted viral marketing
// extension (the BCT problem of the authors' INFOCOM'16 companion, cited
// as [12] in the paper): maximise benefit B(S) subject to Σ cost(v) ≤ B.
type BudgetedOptions struct {
	// Budget is the total spend allowed.
	Budget float64
	// Costs[v] is the price of seeding v (entries ≤ 0 default to 1).
	Costs []float64
	// Epsilon/Delta as elsewhere; Delta 0 ⇒ 1/n.
	Epsilon float64
	Delta   float64
	Seed    uint64
	// Workers bounds sampling parallelism; ≤0 selects
	// runtime.GOMAXPROCS(0) (results are worker-count-independent).
	Workers int
	// Shards is the number of id shards of the WRIS sample store; ≤ 1 = one
	// shard (default), bit-identical results for any count. ShardWorkers
	// bounds per-shard parallelism (≤0 derives Workers/Shards).
	Shards       int
	ShardWorkers int
	// Samples optionally fixes the number of WRIS samples; 0 derives an
	// Eq. 14-style threshold from the instance (see BudgetedMaximize).
	Samples int
}

// normalize validates and fills the non-budget fields in place (the budget
// itself is per-solve: BudgetedSweep legitimately carries many).
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
	ErrBadBudget = errors.New("tvm: budget must be positive")
	ErrNoBudgets = errors.New("tvm: sweep needs at least one budget")
)

// sampleSize derives the WRIS sample count for a budget: the Eq. 14
// pattern with OPT lower-bounded by the largest single affordable benefit
// and k replaced by the largest affordable seed count.
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
	kMax := int(budget / minCost)
	if kMax < 1 {
		kMax = 1
	}
	if kMax > n {
		kMax = n
	}
	if optLB <= 0 {
		optLB = 1
	}
	theta := 4 * stats.OneMinusInvE * t.Gamma *
		(2*math.Log(2/opt.Delta) + stats.LnChoose(n, kMax)) /
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

// BudgetedMaximize solves the budgeted TVM problem with WRIS sampling and
// the Khuller–Moss–Naor ratio greedy ((1−1/√e)-approximate selection on
// the sampled coverage instance). The sample count follows the Eq. 14
// pattern (see sampleSize); pass BudgetedOptions.Samples to override.
func BudgetedMaximize(t *Instance, model diffusion.Model, opt BudgetedOptions) (*BudgetedResult, error) {
	res, err := BudgetedSweep(t, model, []float64{opt.Budget}, opt)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// BudgetedSession is the cost-aware serving object: a long-lived WRIS
// sample stream plus one incremental ratio-greedy solver, answering a
// stream of budget queries against one (instance, model). It is the
// budgeted sibling of stopandstare.Session: the store only ever grows (a
// query tops up to its own sample threshold θ(budget) and reuses every
// prefix), the solver folds each RR set into its persistent gain counts at
// most once (queries at the high-water θ are pure selection passes), and
// the compiled sampling plan comes from the process-wide plan cache. A
// query whose θ falls BELOW the already-scanned prefix is answered by a
// throwaway from-scratch solve over [0, θ) — an O(θ) rescan — while the
// persistent counts stay at the high-water mark, so the next larger budget
// is incremental again; for alternating big/small budgets that beats
// rewinding the persistent solver, whose every big query would then rescan
// the larger suffix. Concurrency follows the same RWMutex discipline:
// queries needing no growth share a read lock; top-ups take the write
// lock; solves serialize on the single solver (selection is the cheap
// phase).
//
// Each Maximize(budget) is solved on the stream prefix of length
// θ(budget), so its result is a pure function of (instance, model, seed,
// ε, δ, budget) — independent of what was queried before, and
// bit-identical to a cold BudgetedMaximize at the same parameters when
// Samples is pinned.
type BudgetedSession struct {
	inst *Instance
	opt  BudgetedOptions // stream parameters; the Budget field is ignored

	store ris.Store
	mu    sync.RWMutex // store growth: writer tops up, readers solve
	solMu sync.Mutex   // the incremental solver's scratch is single-writer
	sol   *maxcover.BudgetedSolver
}

// NewBudgetedSession builds a budgeted serving session. opt fixes the
// stream (costs, ε, δ, seed, workers, shards, optional pinned
// Samples); opt.Budget is ignored — budgets arrive per query.
func NewBudgetedSession(t *Instance, model diffusion.Model, opt BudgetedOptions) (*BudgetedSession, error) {
	if err := opt.normalize(t.G.NumNodes()); err != nil {
		return nil, err
	}
	s, err := t.Sampler(model)
	if err != nil {
		return nil, err
	}
	store := ris.NewStore(s, opt.Seed, ris.StoreOptions{
		Workers: opt.Workers, Shards: opt.Shards, ShardWorkers: opt.ShardWorkers,
	})
	return &BudgetedSession{
		inst: t, opt: opt,
		store: store,
		sol:   maxcover.NewBudgetedSolver(store, opt.Costs),
	}, nil
}

// Samples returns the number of WRIS samples resident in the session store.
func (bs *BudgetedSession) Samples() int {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	return bs.store.Len()
}

// Maximize serves one budget query on the stream prefix of length
// θ(budget) (BudgetedOptions.Samples pins θ), growing the store only past
// its current length.
func (bs *BudgetedSession) Maximize(budget float64) (*BudgetedResult, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("%w (got %v)", ErrBadBudget, budget)
	}
	return bs.maximizeAt(budget, bs.inst.sampleSize(bs.opt, budget), time.Now()), nil
}

// maximizeAt solves one budget over the stream prefix [0, samples),
// topping the store up as needed. start anchors the reported Elapsed
// (BudgetedSweep threads one start through all its solves, preserving its
// cumulative-elapsed contract).
func (bs *BudgetedSession) maximizeAt(budget float64, samples int, start time.Time) *BudgetedResult {
	bs.mu.RLock()
	grown := bs.store.Len() >= samples
	bs.mu.RUnlock()
	if !grown {
		bs.mu.Lock()
		bs.store.GenerateTo(samples) // re-checks under the lock; grow-only
		bs.mu.Unlock()
	}
	bs.mu.RLock()
	bs.solMu.Lock()
	mc := bs.sol.Solve(samples, budget)
	bs.solMu.Unlock()
	mem := bs.store.Bytes()
	bs.mu.RUnlock()
	return &BudgetedResult{
		Seeds:   mc.Seeds,
		Benefit: mc.Influence(bs.inst.Gamma),
		Budget:  budget,
		Cost:    mc.Cost,
		Samples: int64(mc.Upto),
		Elapsed: time.Since(start),
		Memory:  mem,
	}
}

// BudgetedSweep solves the budgeted TVM problem for every budget in the
// list against ONE WRIS sample stream — a BudgetedSession serving the whole
// sweep. The stream is sized once at max_b sampleSize(b), so every budget
// gets at least the samples its standalone (ε, δ) guarantee requires (the
// threshold is not monotone in the budget: a larger budget can afford a
// higher-benefit single node, which shrinks its θ); the session's
// incremental maxcover.BudgetedSolver accumulates gain counts once, and
// each budget is then a pure selection pass proportional to its covered
// items. Each returned result is bit-identical to maxcover.GreedyBudgeted
// on the same collection — but a sweep over N budgets costs one stream
// scan instead of N, and further sweeps on the same session reuse stream
// and counts entirely.
//
// Budgets may arrive in any order (ascending, descending, duplicated);
// every entry must be positive. Results are returned in input order, each
// carrying its Budget, the shared sample count, and the cumulative elapsed
// time at the point its solve finished.
func BudgetedSweep(t *Instance, model diffusion.Model, budgets []float64, opt BudgetedOptions) ([]*BudgetedResult, error) {
	start := time.Now()
	if len(budgets) == 0 {
		return nil, ErrNoBudgets
	}
	for _, b := range budgets {
		if b <= 0 {
			return nil, fmt.Errorf("%w (got %v)", ErrBadBudget, b)
		}
	}
	bs, err := NewBudgetedSession(t, model, opt)
	if err != nil {
		return nil, err
	}
	// All budgets solve on the shared max-θ prefix: each gets at least its
	// standalone sample requirement, and the whole sweep is one stream.
	samples := 0
	for _, b := range budgets {
		if s := t.sampleSize(bs.opt, b); s > samples {
			samples = s
		}
	}
	out := make([]*BudgetedResult, len(budgets))
	for i, b := range budgets {
		out[i] = bs.maximizeAt(b, samples, start)
	}
	return out, nil
}
