package ris_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
	"stopandstare/internal/tvm"
)

// The out-of-core differential: a graph opened from its .sasg mapping must
// be indistinguishable from the heap graph it was written from in every
// observable — same seeds, same influence, same traces, for every algorithm
// × store topology of the grid. The RR-set purity
// invariant (set i is a function of (seed, i)) only survives the mmap
// refactor if the mapped sections really are bit-identical aliases; this
// harness is what pins that.

// mappedTwin round-trips g through a .sasg file in a test temp dir and
// opens it mapped. The mapping is released when the test finishes.
func mappedTwin(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "twin.sasg")
	if err := g.WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := m.Close(); err != nil {
			t.Errorf("closing mapped twin: %v", err)
		}
	})
	return m
}

// TestDifferentialHeapVsMapped runs SSA and D-SSA on the reference stream
// over the heap graph and on the graph's mapped twin across the default
// store and the sharded grid, demanding bit-identical results and traces
// throughout.
func TestDifferentialHeapVsMapped(t *testing.T) {
	heap := diffGraph(t)
	mapped := mappedTwin(t, heap)
	hs, err := ris.NewSampler(heap, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ris.NewSampler(mapped, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"ssa", "dssa"} {
		refRes, refTrace := runCoreRef(t, hs, algo)
		res, trace := runCore(t, ms, algo, 0, 0)
		assertResultsIdentical(t, algo+"/mapped-default", refRes, res, refTrace, trace)
		for _, shards := range diffShardCounts {
			for _, workers := range diffWorkerCounts {
				ctx := fmt.Sprintf("%s/mapped-shards=%d/workers=%d", algo, shards, workers)
				res, trace := runCore(t, ms, algo, shards, workers)
				assertResultsIdentical(t, ctx, refRes, res, refTrace, trace)
			}
		}
	}
}

// TestDifferentialBudgetedSweepHeapVsMapped runs the LT-model TVM budget
// sweep on heap vs mapped. LT plans compile their alias tables and stop
// thresholds from the mapped reverse weights, summed per node by
// InWeightSum: a path the IC harness never takes.
func TestDifferentialBudgetedSweepHeapVsMapped(t *testing.T) {
	heap := diffGraph(t)
	mapped := mappedTwin(t, heap)
	weights := make([]float64, heap.NumNodes())
	for v := range weights {
		weights[v] = float64(v%9) + 0.25
	}
	costs := make([]float64, heap.NumNodes())
	for v := range costs {
		costs[v] = float64((v*7)%4) + 1
	}
	budgets := []float64{3, 9, 27, 81}
	instOf := func(g *graph.Graph) *tvm.Instance {
		inst, err := tvm.NewInstance(g, weights)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	run := func(g *graph.Graph) []*tvm.BudgetedResult {
		res, err := tvm.BudgetedSweep(instOf(g), diffusion.LT, budgets, tvm.BudgetedOptions{
			Costs: costs, Epsilon: 0.2, Seed: 13, Workers: 2,
			Samples: 3000,
		})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return res
	}
	ref := sweepRef(t, instOf(heap), diffusion.LT, costs, budgets, 13, 3000)
	assertSweepsIdentical(t, "sweep/heap", budgets, ref, run(heap))
	assertSweepsIdentical(t, "sweep/mapped", budgets, ref, run(mapped))
}
