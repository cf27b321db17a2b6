package ris

import (
	"fmt"
	"slices"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// TestShardedBitIdenticalToFlat pins the Store contract at the store level:
// for any shard count (the default one-shard store included) and any
// per-shard worker count, the store holds exactly the definition's sample
// stream — same sets, same postings, same coverage counts — for uniform RIS
// and WRIS samplers and both one-shot and doubling schedules.
func TestShardedBitIdenticalToFlat(t *testing.T) {
	g, err := gen.ChungLu(180, 1100, 2.1, 47, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.NumNodes())
	for v := range weights {
		weights[v] = float64(v%7) + 0.5
	}
	samplers := map[string]*Sampler{
		"ris":  mustSampler(t, g, diffusion.IC),
		"wris": mustWeightedSampler(t, g, diffusion.LT, weights),
	}
	schedules := map[string][]int{
		"one-shot": {1500},
		"doubling": {100, 200, 400, 800, 1500},
	}
	for sname, s := range samplers {
		for schedName, schedule := range schedules {
			ref := refStream(s, 909, schedule[len(schedule)-1])
			for _, shards := range []int{1, 2, 3, 7} {
				for _, workers := range []int{1, 4} {
					ctx := fmt.Sprintf("%s/%s/shards=%d/workers=%d", sname, schedName, shards, workers)
					sc := NewShardedCollection(s, 909, shards, workers)
					for _, target := range schedule {
						sc.GenerateTo(target)
					}
					AssertStoresEqual(t, ctx, ref, sc)
				}
			}
		}
	}
}

// TestShardedGenerateToRandomizedSchedules mixes irregular growth steps —
// +1, +3, and prefix-doubling, in seeded-random order — to pin
// shard-boundary off-by-ones in the epoch split tables, reusing the WRIS
// irregular schedules of equivalence_test.go as fixed prefixes. Every
// intermediate state is compared against the reference stream grown in
// lockstep.
func TestShardedGenerateToRandomizedSchedules(t *testing.T) {
	g, err := gen.ChungLu(150, 900, 2.1, 83, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.NumNodes())
	for v := range weights {
		weights[v] = float64((v*13)%5) + 1
	}
	s := mustWeightedSampler(t, g, diffusion.IC, weights)
	// The equivalence_test.go WRIS schedules: doubling and irregular.
	fixed := [][]int{
		{100, 200, 400, 800},
		{1, 3, 700, 701, 800},
	}
	for _, shards := range []int{1, 2, 3, 7} {
		for fi, prefix := range fixed {
			ref := NewRefStore(s, 4242)
			sc := NewShardedCollection(s, 4242, shards, 2)
			grow := func(target int) {
				ref.GenerateTo(target)
				sc.GenerateTo(target)
			}
			for _, target := range prefix {
				grow(target)
			}
			// Randomized continuation: 30 steps of +1 / +3 / doubling.
			r := rng.NewStream(77, uint64(shards*10+fi))
			for step := 0; step < 30; step++ {
				target := ref.Len()
				switch r.Intn(3) {
				case 0:
					target++
				case 1:
					target += 3
				default:
					target *= 2
				}
				if target > 4000 {
					target = ref.Len() + 1
				}
				grow(target)
				if sc.Len() != ref.Len() {
					t.Fatalf("shards=%d fixed=%d step=%d: len %d vs %d",
						shards, fi, step, sc.Len(), ref.Len())
				}
				// Spot-check the newest sets and a boundary-straddling
				// postings window every step; full check at the end.
				for i := ref.Len() - 1; i >= 0 && i >= ref.Len()-4; i-- {
					if !slices.Equal(ref.Set(i), sc.Set(i)) {
						t.Fatalf("shards=%d fixed=%d step=%d: set %d differs", shards, fi, step, i)
					}
				}
			}
			AssertStoresEqual(t, fmt.Sprintf("shards=%d fixed=%d", shards, fi), ref, sc)
		}
	}
}

// TestShardedSetMatchesForEachSet pins the two set-access paths against
// each other across epoch and shard boundaries (locate's binary search and
// shard-formula vs the epoch-walk scan).
func TestShardedSetMatchesForEachSet(t *testing.T) {
	g, err := gen.ErdosRenyi(90, 500, 11, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.LT)
	sc := NewShardedCollection(s, 5, 3, 2)
	for _, target := range []int{1, 2, 5, 50, 1000, 1001} {
		sc.GenerateTo(target)
	}
	seen := 0
	sc.ForEachSet(0, sc.Len(), func(i int, set []uint32) {
		if i != seen {
			t.Fatalf("ForEachSet out of order: got id %d want %d", i, seen)
		}
		seen++
		if !slices.Equal(set, sc.Set(i)) {
			t.Fatalf("set %d: ForEachSet and Set disagree", i)
		}
	})
	if seen != sc.Len() {
		t.Fatalf("ForEachSet visited %d of %d sets", seen, sc.Len())
	}
	// Sub-windows, including empty and clamped ones.
	for _, w := range [][2]int{{17, 23}, {999, 1001}, {0, 1}, {500, 500}, {-5, 2}, {1000, 9999}} {
		lo, hi := w[0], w[1]
		want := 0
		clo, chi := max(lo, 0), min(hi, sc.Len())
		if chi > clo {
			want = chi - clo
		}
		n := 0
		sc.ForEachSet(lo, hi, func(i int, set []uint32) {
			if i < clo || i >= chi {
				t.Fatalf("ForEachSet[%d,%d) yielded out-of-window id %d", lo, hi, i)
			}
			n++
		})
		if n != want {
			t.Fatalf("ForEachSet[%d,%d) visited %d sets, want %d", lo, hi, n, want)
		}
	}
}

// TestOneShardStoreLayout pins what makes one shard the default at no cost:
// ids are identity (no gid table is ever allocated) and Bytes() carries no
// per-set term beyond the offset table — what is left after the arena (its
// resident extents, one per growth), the offset table and the
// CSR index is per-growth-call and per-node metadata,
// far below the 4 bytes per set a gid table would add.
func TestOneShardStoreLayout(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 600, 47, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	for _, shards := range []int{0, 1} {
		sc := NewStore(s, 5, StoreOptions{Workers: 2, Shards: shards}).(*ShardedCollection)
		for _, target := range []int{1000, 20000, 50000} {
			sc.GenerateTo(target)
		}
		if len(sc.segs) != 1 {
			t.Fatalf("Shards=%d built %d shards, want 1", shards, len(sc.segs))
		}
		sg := sc.segs[0]
		if sg.gids != nil {
			t.Fatalf("Shards=%d: one-shard store allocated a gid table (%d entries)", shards, len(sg.gids))
		}
		data := int64(cap(sg.offsets)) * 8
		for i := range sg.exts {
			if !sg.exts[i].mapped {
				data += int64(cap(sg.exts[i].data)) * 4
			}
		}
		for i := range sg.blocks {
			data += int64(cap(sg.blocks[i].starts))*4 + int64(cap(sg.blocks[i].ids))*4
		}
		if rest := sc.Bytes() - s.PlanBytes() - data; rest < 0 || rest >= 4*int64(sc.Len()) {
			t.Fatalf("Shards=%d: %d bytes beyond arena+offsets+index for %d sets, want < 4 per set", shards, rest, sc.Len())
		}
	}
}

// ArenaShape is a copy of one segment's arena bookkeeping: its extent and
// index block counts and its offset and gid tables.
type ArenaShape struct {
	Extents, Blocks int
	Offsets         []int64
	Gids            []int32
}

// ArenaShapes returns the ArenaShape of each of st's segments; st must be a
// store NewStore or Recover built.
func ArenaShapes(st Store) []ArenaShape {
	sc := st.(*ShardedCollection)
	out := make([]ArenaShape, len(sc.segs))
	for i, sg := range sc.segs {
		out[i] = ArenaShape{
			Extents: len(sg.exts), Blocks: len(sg.blocks),
			Offsets: slices.Clone(sg.offsets), Gids: slices.Clone(sg.gids),
		}
	}
	return out
}

func mustWeightedSampler(t testing.TB, g *graph.Graph, model diffusion.Model, weights []float64) *Sampler {
	t.Helper()
	s, err := NewWeightedSampler(g, model, weights)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
