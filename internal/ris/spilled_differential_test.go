// Spilled leg of the differential harness: SSA and D-SSA run on stores
// whose resident budget forces 0%, ~50% and ~90% of the RR data onto the
// disk spill tier — one shard, in-process-sharded, and remote-sharded with
// spilling workers — and every observable must stay bit-identical to the
// definition-level reference stream. Spilling only moves bytes; this is the
// test that keeps it that way.
package ris_test

import (
	"fmt"
	"runtime"
	"testing"

	"stopandstare/internal/core"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/graph"
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

// spillCluster is remoteCluster with a spill budget on every worker: shard
// arenas and index blocks tier to disk inside the worker processes.
func newSpillCluster(t *testing.T, g *graph.Graph, budget int64, addrs ...string) *remoteCluster {
	t.Helper()
	c := &remoteCluster{g: g, servers: make(map[string]*ris.ShardServer)}
	for _, a := range addrs {
		c.servers[a] = ris.NewShardServer(g, ris.ShardServerOptions{
			SamplingWorkers: 2, SpillBudgetBytes: budget, SpillDir: t.TempDir(),
		})
	}
	return c
}

// TestDifferentialRemoteSpilledWorkers runs D-SSA against remote-sharded
// stores whose workers spill under a tiny budget, asserting bit-identity
// with the reference stream and that the workers actually spilled.
func TestDifferentialRemoteSpilledWorkers(t *testing.T) {
	g := diffGraph(t)
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	refRes, refTrace := runCoreRef(t, s, "dssa")
	for _, nw := range []int{1, 2} {
		addrs := make([]string, nw)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("spill-worker-%d", i)
		}
		cluster := newSpillCluster(t, g, 1, addrs...)
		res, trace := runStore(t, s, "dssa", ris.StoreOptions{Workers: 2,
			RemoteWorkers: addrs, RemoteDial: cluster.dial})
		ctx := fmt.Sprintf("dssa/remote-spilled-workers=%d", nw)
		assertResultsIdentical(t, ctx, refRes, res, refTrace, trace)
		spilled := false
		for _, a := range addrs {
			st := cluster.servers[a].SpillStats()
			if !st.Enabled {
				t.Fatalf("%s: worker %s has no spill tier", ctx, a)
			}
			if st.Err != "" {
				t.Fatalf("%s: worker %s spill error: %s", ctx, a, st.Err)
			}
			if st.Blocks > 0 {
				spilled = true
			}
		}
		if !spilled {
			t.Fatalf("%s: no worker spilled under a 1-byte budget", ctx)
		}
	}
}
