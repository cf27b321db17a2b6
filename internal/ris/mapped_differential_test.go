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
// × store topology × sampling kernel of the grid. The RR-set purity
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
// over the heap graph and on the graph's mapped twin across both kernels,
// the default store, and the sharded grid, demanding bit-identical results
// and traces throughout.
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
		for _, kernel := range []ris.Kernel{ris.KernelPlan, ris.KernelOracle} {
			refRes, refTrace := runCoreRef(t, hs, algo, kernel)
			res, trace := runCore(t, ms, algo, 0, 0, kernel)
			assertResultsIdentical(t, fmt.Sprintf("%s/%v/mapped-default", algo, kernel),
				refRes, res, refTrace, trace)
			for _, shards := range diffShardCounts {
				for _, workers := range diffWorkerCounts {
					ctx := fmt.Sprintf("%s/%v/mapped-shards=%d/workers=%d", algo, kernel, shards, workers)
					res, trace := runCore(t, ms, algo, shards, workers, kernel)
					assertResultsIdentical(t, ctx, refRes, res, refTrace, trace)
				}
			}
		}
	}
}

// TestDifferentialBudgetedSweepHeapVsMapped runs the LT-model TVM budget
// sweep on heap vs mapped. LT sampling walks the mapped inCum prefix sums
// (binary search in the oracle kernel) and compiles the alias tables from
// mapped sections (plan kernel), so this closes the loop on the two
// sections the IC harness never touches.
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
	run := func(g *graph.Graph, kernel ris.Kernel) []*tvm.BudgetedResult {
		res, err := tvm.BudgetedSweep(instOf(g), diffusion.LT, budgets, tvm.BudgetedOptions{
			Costs: costs, Epsilon: 0.2, Seed: 13, Workers: 2,
			Samples: 3000, Kernel: kernel,
		})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return res
	}
	for _, kernel := range []ris.Kernel{ris.KernelPlan, ris.KernelOracle} {
		ref := sweepRef(t, instOf(heap), diffusion.LT, kernel, costs, budgets, 13, 3000)
		assertSweepsIdentical(t, fmt.Sprintf("sweep/%v/heap", kernel), budgets, ref, run(heap, kernel))
		assertSweepsIdentical(t, fmt.Sprintf("sweep/%v/mapped", kernel), budgets, ref, run(mapped, kernel))
	}
}
