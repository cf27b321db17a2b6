// Package ris_test hosts the differential harness of the Store interface:
// the full algorithms (SSA, D-SSA, the TVM budget sweep) are run on the
// definition-level reference stream (ris.NewRefStore: set i drawn straight
// from Sampler.Sample on stream (seed, i), candidates solved from scratch)
// and on the production store across shard and worker counts, and every
// observable output — Seeds, Coverage, CoverageSamples, and the
// per-checkpoint traces — must be bit-identical. This is what turns the
// "topology cannot change results" claim from a comment into a tested
// invariant: any drift in shard-boundary bookkeeping, postings dedup, or
// gain accounting shows up as a trace mismatch here.
package ris_test

import (
	"fmt"
	"slices"
	"testing"

	"stopandstare/internal/core"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
	"stopandstare/internal/tvm"
)

// The differential grid: shard counts {1, 2, 3, 7} × per-shard worker
// counts {1, 4}. Shards = 1 is the default one-shard store (identity ids);
// the others exercise the gid tables and epoch split.
var (
	diffShardCounts  = []int{1, 2, 3, 7}
	diffWorkerCounts = []int{1, 4}
)

func diffGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ChungLu(220, 1400, 2.1, 99, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func assertResultsIdentical(t *testing.T, ctx string, ref, got *core.Result, refTrace, gotTrace []core.Checkpoint) {
	t.Helper()
	if !slices.Equal(ref.Seeds, got.Seeds) {
		t.Fatalf("%s: Seeds differ: %v vs %v", ctx, got.Seeds, ref.Seeds)
	}
	if got.Influence != ref.Influence {
		t.Fatalf("%s: Influence %v vs %v", ctx, got.Influence, ref.Influence)
	}
	if got.CoverageSamples != ref.CoverageSamples || got.TotalSamples != ref.TotalSamples {
		t.Fatalf("%s: samples %d/%d vs %d/%d", ctx,
			got.CoverageSamples, got.TotalSamples, ref.CoverageSamples, ref.TotalSamples)
	}
	if got.Iterations != ref.Iterations || got.HitCap != ref.HitCap {
		t.Fatalf("%s: iterations/hitcap %d/%v vs %d/%v", ctx,
			got.Iterations, got.HitCap, ref.Iterations, ref.HitCap)
	}
	if len(gotTrace) != len(refTrace) {
		t.Fatalf("%s: %d checkpoints vs %d", ctx, len(gotTrace), len(refTrace))
	}
	for i := range refTrace {
		if refTrace[i] != gotTrace[i] {
			t.Fatalf("%s: checkpoint %d differs:\n got %+v\nwant %+v", ctx, i, gotTrace[i], refTrace[i])
		}
	}
}

// refExec is the core.Exec the differential legs run the loops through:
// no locking, and coverage counted by the store itself. With a nil solver
// every candidate is solved from scratch (the reference side); otherwise
// the production maxcover.Solver does it, as a session's would.
type refExec struct {
	st  ris.Store
	sol *maxcover.Solver
}

func (e refExec) Store() ris.Store { return e.st }
func (e refExec) Ensure(target int) bool {
	grew := e.st.Len() < target
	e.st.GenerateTo(target)
	return grew
}
func (e refExec) Acquire() {}
func (e refExec) Release() {}
func (e refExec) Solve(upto, k int) maxcover.Result {
	if e.sol == nil {
		return maxcover.Greedy(e.st, upto, k)
	}
	return e.sol.Solve(upto, k)
}
func (e refExec) Coverage(seeds []uint32, from, to int) int64 {
	return e.st.CoverageRangeSeeds(seeds, from, to)
}

// diffSeed is the stream seed of every differential workload.
const diffSeed = 71

// runOn executes SSA or D-SSA with a trace recorder through env, on a fixed
// (seed, k, epsilon) workload.
func runOn(t *testing.T, algo string, env refExec) (*core.Result, []core.Checkpoint) {
	t.Helper()
	var trace []core.Checkpoint
	opt := core.Options{
		K: 8, Epsilon: 0.3, Seed: diffSeed,
		Trace: func(cp core.Checkpoint) { trace = append(trace, cp) },
	}
	var res *core.Result
	var err error
	if algo == "ssa" {
		res, err = core.SSAWith(opt, env)
	} else {
		res, err = core.DSSAWith(opt, env)
	}
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return res, trace
}

// runStore runs the workload on a production store of the given topology.
func runStore(t *testing.T, s *ris.Sampler, algo string, opt ris.StoreOptions) (*core.Result, []core.Checkpoint) {
	t.Helper()
	st := ris.NewStore(s, diffSeed, opt)
	return runOn(t, algo, refExec{st: st, sol: maxcover.NewSolver(st)})
}

// runCore is runStore on an in-process store with the given shard and
// per-shard worker counts.
func runCore(t *testing.T, s *ris.Sampler, algo string, shards, workers int) (*core.Result, []core.Checkpoint) {
	t.Helper()
	return runStore(t, s, algo, ris.StoreOptions{Workers: 2, Shards: shards, ShardWorkers: workers})
}

// runCoreRef executes the workload on the reference stream: what the Store
// contract says the answer is, computed without any store code.
func runCoreRef(t *testing.T, s *ris.Sampler, algo string) (*core.Result, []core.Checkpoint) {
	t.Helper()
	return runOn(t, algo, refExec{st: ris.NewRefStore(s, diffSeed)})
}

// TestDifferentialSSAFlatVsSharded and its D-SSA sibling run the full
// stop-and-stare loops — doubling schedule, incremental max-coverage,
// index-driven (D-SSA) or stopping-rule (SSA) verification — on every
// store topology of the grid and demand traces bit-identical to the
// reference stream's. The traces are compared checkpoint by checkpoint, so
// a divergence pinpoints the first iteration at which the store leaked into
// results.
func TestDifferentialSSAFlatVsSharded(t *testing.T) {
	differentialCore(t, "ssa")
}

func TestDifferentialDSSAFlatVsSharded(t *testing.T) {
	differentialCore(t, "dssa")
}

// differentialCore runs the grid: no store topology may leak into results.
func differentialCore(t *testing.T, algo string) {
	g := diffGraph(t)
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	refRes, refTrace := runCoreRef(t, s, algo)
	// The default configuration (Shards 0, default workers).
	res0, trace0 := runCore(t, s, algo, 0, 0)
	assertResultsIdentical(t, algo+"/default", refRes, res0, refTrace, trace0)
	for _, shards := range diffShardCounts {
		for _, workers := range diffWorkerCounts {
			ctx := fmt.Sprintf("%s/shards=%d/shardWorkers=%d", algo, shards, workers)
			res, trace := runCore(t, s, algo, shards, workers)
			assertResultsIdentical(t, ctx, refRes, res, refTrace, trace)
		}
	}
}

// sweepRef is the reference side of the TVM sweep differentials: each
// budget solved from scratch by maxcover.GreedyBudgeted over the first
// `samples` sets of the definition-level WRIS stream.
func sweepRef(t *testing.T, inst *tvm.Instance, model diffusion.Model,
	costs, budgets []float64, seed uint64, samples int) []*tvm.BudgetedResult {
	t.Helper()
	s, err := inst.Sampler(model)
	if err != nil {
		t.Fatal(err)
	}
	ref := ris.NewRefStore(s, seed)
	ref.GenerateTo(samples)
	out := make([]*tvm.BudgetedResult, len(budgets))
	for i, b := range budgets {
		mc := maxcover.GreedyBudgeted(ref, samples, costs, b)
		out[i] = &tvm.BudgetedResult{Seeds: mc.Seeds, Benefit: mc.Influence(inst.Gamma),
			Budget: b, Cost: mc.Cost, Samples: int64(mc.Upto)}
	}
	return out
}

// assertSweepsIdentical compares two sweeps budget by budget.
func assertSweepsIdentical(t *testing.T, ctx string, budgets []float64, ref, got []*tvm.BudgetedResult) {
	t.Helper()
	for i := range ref {
		ctx := fmt.Sprintf("%s/budget=%v", ctx, budgets[i])
		if !slices.Equal(ref[i].Seeds, got[i].Seeds) {
			t.Fatalf("%s: Seeds %v vs %v", ctx, got[i].Seeds, ref[i].Seeds)
		}
		if got[i].Benefit != ref[i].Benefit || got[i].Cost != ref[i].Cost ||
			got[i].Samples != ref[i].Samples {
			t.Fatalf("%s: benefit/cost/samples %v/%v/%d vs %v/%v/%d", ctx,
				got[i].Benefit, got[i].Cost, got[i].Samples,
				ref[i].Benefit, ref[i].Cost, ref[i].Samples)
		}
	}
}

// TestDifferentialBudgetedSweepFlatVsSharded runs the cost-aware TVM sweep
// (WRIS sampling + one-scan ratio greedy + KMN fix-up) over several
// budgets on one shared store per topology, asserting seeds, benefit
// estimates, costs and sample counts identical to the reference per budget.
func TestDifferentialBudgetedSweepFlatVsSharded(t *testing.T) {
	g := diffGraph(t)
	weights := make([]float64, g.NumNodes())
	for v := range weights {
		weights[v] = float64(v%9) + 0.25
	}
	inst, err := tvm.NewInstance(g, weights)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, g.NumNodes())
	for v := range costs {
		costs[v] = float64((v*7)%4) + 1
	}
	budgets := []float64{3, 9, 27, 81}
	run := func(shards, workers int) []*tvm.BudgetedResult {
		res, err := tvm.BudgetedSweep(inst, diffusion.LT, budgets, tvm.BudgetedOptions{
			Costs: costs, Epsilon: 0.2, Seed: 13, Workers: 2,
			Samples: 3000, Shards: shards, ShardWorkers: workers,
		})
		if err != nil {
			t.Fatalf("sweep shards=%d workers=%d: %v", shards, workers, err)
		}
		return res
	}
	ref := sweepRef(t, inst, diffusion.LT, costs, budgets, 13, 3000)
	assertSweepsIdentical(t, "sweep/default", budgets, ref, run(0, 0))
	for _, shards := range diffShardCounts {
		for _, workers := range diffWorkerCounts {
			ctx := fmt.Sprintf("sweep/shards=%d/workers=%d", shards, workers)
			assertSweepsIdentical(t, ctx, budgets, ref, run(shards, workers))
		}
	}
}

// TestDifferentialSolversOnShardedStore closes the loop below the
// algorithms: the incremental Solver fed checkpoints, and a BudgetedSolver
// built per checkpoint, on the store at every shard count, must match
// from-scratch solves on the reference stream — the maxcover layer's own
// differential.
func TestDifferentialSolversOnShardedStore(t *testing.T) {
	g := diffGraph(t)
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	ref := ris.NewRefStore(s, 31)
	costs := make([]float64, g.NumNodes())
	for v := range costs {
		costs[v] = float64(v%3) + 1
	}
	for _, shards := range diffShardCounts {
		sharded := ris.NewShardedCollection(s, 31, shards, 2)
		solver := maxcover.NewSolver(sharded)
		for _, upto := range []int{60, 120, 240, 480, 900} {
			ref.GenerateTo(upto)
			sharded.GenerateTo(upto)
			got := solver.Solve(upto, 7)
			want := maxcover.Greedy(ref, upto, 7)
			if !slices.Equal(got.Seeds, want.Seeds) || got.Coverage != want.Coverage {
				t.Fatalf("shards=%d upto=%d: solver %v/%d vs reference %v/%d",
					shards, upto, got.Seeds, got.Coverage, want.Seeds, want.Coverage)
			}
			gotB := maxcover.NewBudgetedSolver(sharded, upto, costs).Solve(25)
			wantB := maxcover.GreedyBudgeted(ref, upto, costs, 25)
			if !slices.Equal(gotB.Seeds, wantB.Seeds) || gotB.Coverage != wantB.Coverage || gotB.Cost != wantB.Cost {
				t.Fatalf("shards=%d upto=%d: budgeted %v/%d/%v vs reference %v/%d/%v",
					shards, upto, gotB.Seeds, gotB.Coverage, gotB.Cost,
					wantB.Seeds, wantB.Coverage, wantB.Cost)
			}
		}
	}
}
