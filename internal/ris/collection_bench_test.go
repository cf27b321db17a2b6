package ris

import (
	"fmt"
	"sort"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.ChungLu(20000, 120000, 2.1, 9, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkGenerate measures cold generation of a stream into the arena
// (sets + CSR index block) per model; allocations are the headline metric.
func BenchmarkGenerate(b *testing.B) {
	g := benchGraph(b)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		b.Run(model.String(), func(b *testing.B) {
			s := mustSampler(b, g, model)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col := NewShardedCollection(s, uint64(i)+1, 1, 4)
				col.GenerateTo(20000)
			}
		})
	}
}

// BenchmarkGenerateSingleWorker measures the compiled plan's sampling cost
// per model on one worker, so the number is pure sampler cost.
func BenchmarkGenerateSingleWorker(b *testing.B) {
	g := benchGraph(b)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		b.Run(model.String(), func(b *testing.B) {
			s := mustSampler(b, g, model)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col := NewShardedCollection(s, uint64(i)+1, 1, 1)
				col.GenerateTo(20000)
			}
		})
	}
}

// BenchmarkGenerateOutOfCache measures the sampling kernel alone, one
// worker, on the dblp preset at scale 0.4 (262 k nodes, 800 k edges): a
// graph whose plan and marks do not fit in cache, so the cost per item is
// dominated by the walks' cache misses, which benchGraph's 20 k nodes hide.
// It reports ns/item, the time per RR-set member generated, and plan_MB,
// the compiled plan's own memory (Plan.Bytes).
func BenchmarkGenerateOutOfCache(b *testing.B) {
	pre, err := gen.PresetByName("dblp")
	if err != nil {
		b.Fatal(err)
	}
	g, err := pre.Generate(0.4, 1, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		b.Fatal(err)
	}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		b.Run(model.String(), func(b *testing.B) {
			s := mustSampler(b, g, model)
			p, err := s.Plan()
			if err != nil {
				b.Fatal(err)
			}
			var items int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, res := range sampleChunks(b, s, uint64(i)+1, 0, 20000, 1) {
					items += int64(len(res.buf))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(items), "ns/item")
			b.ReportMetric(float64(p.Bytes())/(1<<20), "plan_MB")
		})
	}
}

// BenchmarkGenerateSharded measures cold generation at 2 and 4 shards with
// the same total worker budget as BenchmarkGenerate (4), which is the
// one-shard point of the same sweep.
func BenchmarkGenerateSharded(b *testing.B) {
	g := benchGraph(b)
	s := mustSampler(b, g, diffusion.IC)
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				col := NewShardedCollection(s, uint64(i)+1, shards, 4/shards)
				col.GenerateTo(20000)
			}
		})
	}
}

// BenchmarkGenerateDoubling measures a doubling growth schedule — the
// allocation pattern SSA/D-SSA actually produce — rather than one bulk call.
func BenchmarkGenerateDoubling(b *testing.B) {
	g := benchGraph(b)
	s := mustSampler(b, g, diffusion.LT)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := NewShardedCollection(s, uint64(i)+1, 1, 4)
		for target := 500; target <= 32000; target *= 2 {
			col.GenerateTo(target)
		}
	}
}

// benchmarkIndexBuild measures one full CSR block build over a 40k-set
// stream at the given worker count, isolated from sampling: the index is
// dropped and rebuilt each iteration.
func benchmarkIndexBuild(b *testing.B, workers int) {
	g := benchGraph(b)
	s := mustSampler(b, g, diffusion.IC)
	col := NewShardedCollection(s, 11, 1, workers)
	col.GenerateTo(40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg := col.segs[0]
		sg.blocks = sg.blocks[:0]
		sg.appendIndexBlock(0, sg.nsets(), workers)
	}
}

// BenchmarkIndexBuildSerial is the pre-refactor build: one thread counts,
// prefix-sums and places every posting.
func BenchmarkIndexBuildSerial(b *testing.B) { benchmarkIndexBuild(b, 1) }

// BenchmarkIndexBuildParallel is the per-worker counting + prefix-sum merge
// + disjoint placement build at 4 workers; the layout is bit-identical to
// the serial one. The wall-clock win needs ≥ 4 hardware threads — on a
// single-core machine this degenerates to the serial cost plus goroutine
// overhead.
func BenchmarkIndexBuildParallel(b *testing.B) { benchmarkIndexBuild(b, 4) }

// coverageBench builds the D-SSA verification scenario: a 20k-set stream, a
// 50-node candidate seed set (the highest-posting nodes, as greedy would
// pick), and the holdout window [half, len).
func coverageBench(b *testing.B) (col *ShardedCollection, seeds []uint32, mark []bool, half int) {
	g := benchGraph(b)
	s := mustSampler(b, g, diffusion.IC)
	col = NewShardedCollection(s, 17, 1, 0)
	col.GenerateTo(20000)
	nodes := make([]uint32, g.NumNodes())
	for v := range nodes {
		nodes[v] = uint32(v)
	}
	freq := make([]int, g.NumNodes())
	col.ForEachSet(0, col.Len(), func(_ int, set []uint32) {
		for _, v := range set {
			freq[v]++
		}
	})
	sort.Slice(nodes, func(i, j int) bool { return freq[nodes[i]] > freq[nodes[j]] })
	mark = make([]bool, g.NumNodes())
	for _, v := range nodes[:50] {
		seeds = append(seeds, v)
		mark[v] = true
	}
	return col, seeds, mark, col.Len() / 2
}

// BenchmarkCoverageRangeScan is the pre-refactor holdout check: an arena
// scan over every RR set in the window.
func BenchmarkCoverageRangeScan(b *testing.B) {
	col, _, mark, half := coverageBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanCoverage(col, mark, half, col.Len())
	}
}

// BenchmarkCoverageRangePostings is the index-driven check: a k-way union
// walk of the seeds' postings in the window.
func BenchmarkCoverageRangePostings(b *testing.B) {
	col, seeds, _, half := coverageBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.CoverageRangeSeeds(seeds, half, col.Len())
	}
}
