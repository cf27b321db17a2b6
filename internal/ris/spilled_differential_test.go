// Spilled leg of the differential harness: SSA and D-SSA run on stores
// whose resident budget forces 0%, ~50% and ~90% of the RR data onto the
// disk spill tier — one shard and in-process-sharded — and every
// observable must stay bit-identical to the definition-level reference
// stream. Spilling only moves bytes; this is the test that keeps it that
// way.
package ris_test

import (
	"fmt"
	"runtime"
	"testing"

	"stopandstare/internal/core"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/ris"
)

// runCoreSpilled is runCore with a spill budget on the store.
func runCoreSpilled(t *testing.T, s *ris.Sampler, algo string, shards int, budget int64) (*core.Result, []core.Checkpoint) {
	t.Helper()
	return runStore(t, s, algo, ris.StoreOptions{Workers: 2 * max(shards, 1), Shards: shards,
		SpillBudgetBytes: budget, SpillDir: t.TempDir()})
}

// spillBudgets derives the 0%/50%/90% spill points from an unspilled run's
// store footprint, plus the degenerate 1-byte budget (spill everything
// spillable, every growth).
func spillBudgets(unspilledBytes int64) []int64 {
	return []int64{2 * unspilledBytes, unspilledBytes / 2, unspilledBytes / 10, 1}
}

// TestDifferentialSpilledVsFlat runs SSA and D-SSA at every spill budget on
// one-shard and sharded stores, demanding Seeds, Influence, sample counts
// and per-checkpoint traces bit-identical to the reference stream's.
func TestDifferentialSpilledVsFlat(t *testing.T) {
	g := diffGraph(t)
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"ssa", "dssa"} {
		refRes, refTrace := runCoreRef(t, s, algo)
		unspilled, _ := runCore(t, s, algo, 0, 0)
		for _, shards := range []int{0, 3} {
			// Resident footprint is only comparable within the same
			// topology: several shards carry gid tables and per-shard
			// metadata one shard doesn't.
			shapeRef, _ := runCore(t, s, algo, shards, 2)
			for _, budget := range spillBudgets(unspilled.MemoryBytes) {
				ctx := fmt.Sprintf("%s/shards=%d/budget=%d", algo, shards, budget)
				res, trace := runCoreSpilled(t, s, algo, shards, budget)
				assertResultsIdentical(t, ctx, refRes, res, refTrace, trace)
				// On platforms without the mmap spill path the payloads
				// stay resident, so only linux pins the byte reduction.
				if budget == 1 && runtime.GOOS == "linux" && res.MemoryBytes >= shapeRef.MemoryBytes {
					t.Fatalf("%s: spilled store resident %d, want < unspilled %d", ctx, res.MemoryBytes, shapeRef.MemoryBytes)
				}
			}
		}
	}
}
