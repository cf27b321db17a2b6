package ris

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// coverageSchedules are the growth schedules the coverage equivalence runs
// over — the same one-shot / doubling / irregular shapes as the arena
// equivalence test, so the CSR layout under test includes merged
// (size-tiered absorbed) and irregular block boundaries.
var coverageSchedules = []struct {
	name     string
	workers  int
	schedule []int
}{
	{"w1-one-shot", 1, []int{2500}},
	{"w2-doubling", 2, []int{100, 200, 400, 800, 1600, 2500}},
	{"w8-irregular", 8, []int{1, 3, 700, 701, 2499, 2500}},
}

// TestCoverageRangeSeedsMatchesArenaScan pins the index-driven coverage
// contract: for every window and seed set, the k-way postings union walk
// returns exactly the arena scan's count, across merged and irregular CSR
// block layouts and both models — on windows whose start is not a multiple
// of the bitset's 64-id words, on windows straddling each CSR block
// boundary, and over spilled (mapped) blocks.
func TestCoverageRangeSeedsMatchesArenaScan(t *testing.T) {
	g, err := gen.ChungLu(250, 1400, 2.1, 83, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	seedSets := [][]uint32{
		nil,
		{0},
		{17},
		{3, 3, 3}, // duplicates must not double-count
		{0, 1, 2, 3, 4},
		{5, 200, 5, 119, 200, 42}, // unsorted with duplicates
		manyNodes(60),
	}
	windows := [][2]int{
		{0, 0}, {0, 1}, {0, 2500}, {1250, 2500}, {699, 702},
		{700, 701}, {2499, 2500}, {100, 1600}, {-5, 99999}, {1800, 1700},
		{65, 1999}, // from inside a bitset word
	}
	check := func(name string, col *ShardedCollection) {
		t.Helper()
		ws := windows
		for _, b := range col.segs[0].blocks {
			if b.to < col.Len() {
				ws = append(ws, [2]int{b.to - 37, b.to + 29}) // straddles a block boundary
			}
		}
		mark := make([]bool, n)
		for _, seeds := range seedSets {
			for _, v := range seeds {
				mark[v] = true
			}
			for _, w := range ws {
				want := scanCoverage(col, mark, w[0], w[1])
				got := col.CoverageRangeSeeds(seeds, w[0], w[1])
				if got != want {
					t.Fatalf("%s seeds=%v window=%v: postings %d, arena scan %d",
						name, seeds, w, got, want)
				}
			}
			for _, v := range seeds {
				mark[v] = false
			}
		}
	}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := mustSampler(t, g, model)
		for _, sc := range coverageSchedules {
			col := NewShardedCollection(s, 123, 1, sc.workers)
			for _, target := range sc.schedule {
				col.GenerateTo(target)
			}
			if len(col.segs[0].blocks) < 2 && len(sc.schedule) > 1 {
				t.Fatalf("%v/%s: %d CSR blocks, want a boundary to straddle", model, sc.name, len(col.segs[0].blocks))
			}
			check(fmt.Sprintf("%v/%s", model, sc.name), col)
		}
		// The doubling schedule's blocks, all spilled: the walk reads
		// mapped blocks.
		st := NewStore(s, 123, StoreOptions{Workers: 2, SpillBudgetBytes: 1, SpillDir: t.TempDir()})
		for _, target := range coverageSchedules[1].schedule {
			st.GenerateTo(target)
		}
		if err := st.SpillTo(0); err != nil {
			t.Fatal(err)
		}
		col := st.(*ShardedCollection)
		if !slices.ContainsFunc(col.segs[0].blocks, func(b csrBlock) bool { return b.mapped }) {
			t.Fatalf("%v: no spilled CSR block", model)
		}
		check(fmt.Sprintf("%v/spilled", model), col)
	}
}

func manyNodes(k int) []uint32 {
	out := make([]uint32, k)
	for i := range out {
		out[i] = uint32(i * 3)
	}
	return out
}

// TestPostingsRangeMatchesIndexUpto checks the windowed postings iterator
// against the arena-scan index (scanIndex) filtered by hand, for windows
// that fall inside, on, and beyond CSR block boundaries.
func TestPostingsRangeMatchesIndexUpto(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 700, 19, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	col := NewShardedCollection(s, 7, 1, 3)
	for _, target := range []int{300, 600, 1200} {
		col.GenerateTo(target)
	}
	windows := [][2]int{
		{0, 1200}, {0, 299}, {299, 301}, {300, 600}, {600, 600},
		{599, 601}, {1, 1199}, {750, 5000}, {-3, 450},
	}
	for _, w := range windows {
		for v := uint32(0); int(v) < g.NumNodes(); v += 7 {
			var want []int32
			for _, id := range scanIndex(col, v, col.Len()) {
				if int(id) >= w[0] && int(id) < w[1] {
					want = append(want, id)
				}
			}
			var got []int32
			it := col.PostingsRange(v, w[0], w[1])
			for {
				run, ok := it.Next()
				if !ok {
					break
				}
				if len(run) == 0 {
					t.Fatal("iterator yielded an empty run")
				}
				got = append(got, run...)
			}
			if len(got) != len(want) {
				t.Fatalf("window=%v v=%d: iterator %d ids, filter %d", w, v, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("window=%v v=%d: posting %d differs", w, v, i)
				}
			}
		}
	}
}

// TestIndexBlockLayoutIdenticalAcrossWorkers pins the parallel CSR build
// contract at the layout level: not just the same postings, but
// bit-identical starts/ids arrays and block boundaries for 1, 2 and 8
// workers, on both a one-shot build (one large parallel block) and a
// doubling schedule (absorbing rebuilds).
func TestIndexBlockLayoutIdenticalAcrossWorkers(t *testing.T) {
	g, err := gen.ChungLu(400, 2400, 2.1, 51, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	schedules := [][]int{
		{30000},
		{4000, 8000, 16000, 30000},
	}
	for si, schedule := range schedules {
		ref := NewShardedCollection(s, 99, 1, 1)
		for _, target := range schedule {
			ref.GenerateTo(target)
		}
		// The layout assertion below is only meaningful if the variants
		// take the parallel path; guarantee it via the worker threshold.
		if int(ref.Items()) < 2*indexItemsPerWorker {
			t.Fatalf("schedule %d: stream too small (%d items) to exercise the parallel build", si, ref.Items())
		}
		for _, workers := range []int{2, 8} {
			col := NewShardedCollection(s, 99, 1, workers)
			for _, target := range schedule {
				col.GenerateTo(target)
			}
			if len(col.segs[0].blocks) != len(ref.segs[0].blocks) {
				t.Fatalf("schedule %d w=%d: %d blocks vs %d", si, workers, len(col.segs[0].blocks), len(ref.segs[0].blocks))
			}
			for bi := range ref.segs[0].blocks {
				rb, cb := &ref.segs[0].blocks[bi], &col.segs[0].blocks[bi]
				if rb.from != cb.from || rb.to != cb.to {
					t.Fatalf("schedule %d w=%d block %d: range [%d,%d) vs [%d,%d)",
						si, workers, bi, cb.from, cb.to, rb.from, rb.to)
				}
				if len(rb.starts) != len(cb.starts) || len(rb.ids) != len(cb.ids) {
					t.Fatalf("schedule %d w=%d block %d: array sizes differ", si, workers, bi)
				}
				for i := range rb.starts {
					if rb.starts[i] != cb.starts[i] {
						t.Fatalf("schedule %d w=%d block %d: starts[%d] %d vs %d",
							si, workers, bi, i, cb.starts[i], rb.starts[i])
					}
				}
				for i := range rb.ids {
					if rb.ids[i] != cb.ids[i] {
						t.Fatalf("schedule %d w=%d block %d: ids[%d] %d vs %d",
							si, workers, bi, i, cb.ids[i], rb.ids[i])
					}
				}
			}
		}
	}
}

// TestIndexBlockCap lowers the per-block postings cap (math.MaxInt32 in
// production, where starts' int32 prefix sum would otherwise wrap) and
// checks that one large growth is split at set boundaries, that the
// size-tiered merge of many small growths stops before the cap, and that
// the recovery rebuild splits the same way — all with postings and
// coverage equal to the reference stream.
func TestIndexBlockCap(t *testing.T) {
	defer func(c int64) { maxBlockItems = c }(maxBlockItems)
	maxBlockItems = 3000
	g, err := gen.ChungLu(400, 2400, 2.1, 51, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	checkBlocks := func(ctx string, sg *segment) {
		t.Helper()
		next := 0
		for bi, b := range sg.blocks {
			if int64(len(b.ids)) > maxBlockItems {
				t.Fatalf("%s: block %d holds %d postings, cap %d", ctx, bi, len(b.ids), maxBlockItems)
			}
			if b.lfrom != next || b.lto <= b.lfrom {
				t.Fatalf("%s: block %d covers [%d,%d), want a run from %d", ctx, bi, b.lfrom, b.lto, next)
			}
			if want := int(sg.offsets[b.lto] - sg.offsets[b.lfrom]); len(b.ids) != want || int(b.starts[sg.n]) != want {
				t.Fatalf("%s: block %d holds %d postings (starts end %d), its sets %d", ctx, bi, len(b.ids), b.starts[sg.n], want)
			}
			next = b.lto
		}
		if next != sg.nsets() {
			t.Fatalf("%s: blocks cover %d of %d sets", ctx, next, sg.nsets())
		}
	}
	for _, tc := range []struct {
		name     string
		schedule []int
		workers  int
	}{
		{"one-growth", []int{6000}, 1},
		{"one-growth-parallel", []int{6000}, 4},
		{"small-growths", []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700, 1800, 1900, 2000}, 1},
	} {
		col := NewShardedCollection(s, 99, 1, tc.workers)
		for _, target := range tc.schedule {
			col.GenerateTo(target)
		}
		sg := col.segs[0]
		if col.Items() <= 2*maxBlockItems {
			t.Fatalf("%s: %d items do not need three blocks", tc.name, col.Items())
		}
		checkBlocks(tc.name, sg)
		ref := refStream(s, 99, col.Len())
		AssertStoresEqual(t, tc.name, ref, col)

		sg.blocks = nil
		rebuildIndexBlocks(sg, 0, sg.nsets())
		checkBlocks(tc.name+"/rebuilt", sg)
		AssertStoresEqual(t, tc.name+"/rebuilt", ref, col)
	}
}

// TestStopIndexMatchesArenaScan pins StopIndex against a scan of the sets in
// id order, on a three-shard store (whose postings runs interleave) built
// over the verification stream: every window and every need returns the id
// of the need-th hit, or the window's end and its hit count.
func TestStopIndexMatchesArenaScan(t *testing.T) {
	g, err := gen.ChungLu(250, 1400, 2.1, 89, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		st := NewStore(mustSampler(t, g, model).VerifySampler(), 7, StoreOptions{Shards: 3, Workers: 2})
		for _, target := range []int{300, 301, 1900} {
			st.GenerateTo(target)
		}
		var words []uint64
		for _, seeds := range [][]uint32{nil, {0}, {4, 4, 90}, manyNodes(40)} {
			mark := make([]bool, g.NumNodes())
			for _, v := range seeds {
				mark[v] = true
			}
			for _, w := range [][2]int{{0, 1900}, {0, 1}, {63, 64}, {299, 1303}, {1000, 5000}, {700, 700}} {
				for _, need := range []int64{1, 2, 7, 64, 65, 500, 2000} {
					wantID, wantCov := min(w[1], st.Len()), int64(0)
					for i := w[0]; i < min(w[1], st.Len()); i++ {
						if slices.ContainsFunc(st.Set(i), func(v uint32) bool { return mark[v] }) {
							if wantCov++; wantCov == need {
								wantID = i
								break
							}
						}
					}
					id, cov := StopIndex(st, &words, seeds, w[0], w[1], need)
					if id != wantID || cov != wantCov {
						t.Fatalf("%v seeds %v window %v need %d: (%d, %d), scan (%d, %d)",
							model, seeds, w, need, id, cov, wantID, wantCov)
					}
				}
			}
		}
	}
}

// TestScanStopMatchesStopIndex checks the store-free scan against StopIndex
// over a store on the same stream, for windows inside one scan slice and
// across slice boundaries, at two worker counts, and that a cancelled scan
// returns the context's error.
func TestScanStopMatchesStopIndex(t *testing.T) {
	g, err := gen.ChungLu(250, 1400, 2.1, 89, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		vs := mustSampler(t, g, model).VerifySampler()
		st := NewStore(vs, 7, StoreOptions{Workers: 2})
		st.GenerateTo(scanSlice + 2100)
		var words []uint64
		for si, seeds := range [][]uint32{nil, {0}, {4, 4, 90}, manyNodes(40)} {
			for _, w := range [][2]int{{0, 1}, {63, 64}, {700, 700}, {scanSlice - 40, scanSlice + 40}, {300, scanSlice + 2100}} {
				for _, need := range []int64{1, 65, 2000, math.MaxInt64} {
					wantID, wantCov := StopIndex(st, &words, seeds, w[0], w[1], need)
					for _, workers := range []int{1, 3} {
						if workers == 3 && si != 3 {
							continue
						}
						id, cov, err := ScanStop(ctx, vs, 7, seeds, w[0], w[1], need, workers)
						if err != nil || id != wantID || cov != wantCov {
							t.Fatalf("%v seeds %v window %v need %d workers %d: (%d, %d, %v), StopIndex (%d, %d)",
								model, seeds, w, need, workers, id, cov, err, wantID, wantCov)
						}
					}
				}
			}
		}
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if _, _, err := ScanStop(cancelled, vs, 7, []uint32{0}, 0, 5000, 10, 2); err != context.Canceled {
			t.Fatalf("%v: a cancelled scan returned %v", model, err)
		}
	}
}

// TestVerifySamplerStoreIsVerifyStream pins what a store on VerifySampler
// holds: set i is the set SeedVerifyStream(seed, i) draws, for both models.
func TestVerifySamplerStoreIsVerifyStream(t *testing.T) {
	g, err := gen.ChungLu(250, 1400, 2.1, 97, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := mustSampler(t, g, model)
		st := NewStore(s.VerifySampler(), 5, StoreOptions{Workers: 2})
		st.GenerateTo(1500)
		state := s.NewState()
		var r rng.Source
		for i := 0; i < st.Len(); i++ {
			SeedVerifyStream(&r, 5, uint64(i))
			if want := s.Sample(&r, state); !slices.Equal(st.Set(i), want) {
				t.Fatalf("%v set %d = %v, verification stream draws %v", model, i, st.Set(i), want)
			}
		}
	}
}
