package maxcover

import (
	"testing"
	"testing/quick"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
)

func buildCollection(t testing.TB, n, mEdges, sets int, seed uint64) ris.Store {
	t.Helper()
	g, err := gen.ErdosRenyi(n, int64(mEdges), seed, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	col := ris.NewStore(s, seed+1, ris.StoreOptions{Workers: 2})
	col.GenerateTo(sets)
	return col
}

// CoverageOf recounts Cov over [0, upto) for an arbitrary seed set by
// scanning the sets themselves — the oracle the solvers' index-driven
// coverage bookkeeping is cross-checked against.
func CoverageOf(c ris.Store, seeds []uint32, upto int) int64 {
	mark := make([]bool, c.NumNodes())
	for _, s := range seeds {
		mark[s] = true
	}
	var cov int64
	c.ForEachSet(0, upto, func(_ int, set []uint32) {
		for _, v := range set {
			if mark[v] {
				cov++
				break
			}
		}
	})
	return cov
}

// bruteForceBest finds the optimal coverage over all size-k subsets of the
// nodes that appear in any set (tiny instances only).
func bruteForceBest(col ris.Store, upto, k int) int64 {
	var nodes []uint32
	seen := map[uint32]bool{}
	for i := 0; i < upto; i++ {
		for _, v := range col.Set(i) {
			if !seen[v] {
				seen[v] = true
				nodes = append(nodes, v)
			}
		}
	}
	best := int64(0)
	var rec func(start int, chosen []uint32)
	rec = func(start int, chosen []uint32) {
		if len(chosen) == k || start == len(nodes) {
			if c := CoverageOf(col, chosen, upto); c > best {
				best = c
			}
			return
		}
		rec(start+1, append(chosen, nodes[start]))
		rec(start+1, chosen)
	}
	rec(0, nil)
	return best
}

func TestGreedyMatchesBruteForceGuarantee(t *testing.T) {
	// Cov(greedy) ≥ (1−1/e)·OPT — and for small instances greedy is often
	// optimal; verify the guarantee holds on many random instances.
	for seed := uint64(0); seed < 8; seed++ {
		col := buildCollection(t, 12, 40, 60, seed*13+1)
		for _, k := range []int{1, 2, 3} {
			got := Greedy(col, col.Len(), k)
			opt := bruteForceBest(col, col.Len(), k)
			if float64(got.Coverage) < (1-1.0/2.718281828)*float64(opt)-1e-9 {
				t.Fatalf("seed %d k=%d: coverage %d below guarantee of opt %d", seed, k, got.Coverage, opt)
			}
			if got.Coverage > opt {
				t.Fatalf("greedy coverage %d exceeds optimum %d", got.Coverage, opt)
			}
		}
	}
}

func TestGreedyCoverageMatchesRecount(t *testing.T) {
	col := buildCollection(t, 50, 300, 800, 5)
	for _, k := range []int{1, 5, 20} {
		res := Greedy(col, col.Len(), k)
		if recount := CoverageOf(col, res.Seeds, col.Len()); recount != res.Coverage {
			t.Fatalf("k=%d: reported %d recounted %d", k, res.Coverage, recount)
		}
	}
}

func TestGreedyReturnsExactlyKSeeds(t *testing.T) {
	col := buildCollection(t, 30, 100, 50, 7)
	for _, k := range []int{1, 3, 10, 29, 30} {
		res := Greedy(col, col.Len(), k)
		if len(res.Seeds) != k {
			t.Fatalf("k=%d: returned %d seeds", k, len(res.Seeds))
		}
		seen := map[uint32]bool{}
		for _, s := range res.Seeds {
			if seen[s] {
				t.Fatalf("duplicate seed %d", s)
			}
			seen[s] = true
		}
	}
}

func TestGreedyKExceedsN(t *testing.T) {
	col := buildCollection(t, 10, 30, 20, 9)
	res := Greedy(col, col.Len(), 50)
	if len(res.Seeds) != 10 {
		t.Fatalf("k>n should clamp to n: got %d seeds", len(res.Seeds))
	}
}

func TestGreedyPrefixOnly(t *testing.T) {
	// Solutions over a prefix must not count coverage beyond it.
	col := buildCollection(t, 40, 200, 600, 11)
	res := Greedy(col, 300, 5)
	if res.Upto != 300 {
		t.Fatalf("upto %d", res.Upto)
	}
	if recount := CoverageOf(col, res.Seeds, 300); recount != res.Coverage {
		t.Fatalf("prefix coverage mismatch: %d vs %d", res.Coverage, recount)
	}
	if res.Coverage > 300 {
		t.Fatal("coverage exceeds prefix size")
	}
}

func TestGreedyUptoBeyondLen(t *testing.T) {
	col := buildCollection(t, 20, 60, 100, 13)
	res := Greedy(col, 10_000, 3)
	if res.Upto != col.Len() {
		t.Fatalf("upto should clamp to Len: %d", res.Upto)
	}
}

func TestGreedyEmptyCollection(t *testing.T) {
	col := buildCollection(t, 20, 60, 0, 15)
	res := Greedy(col, 0, 4)
	if res.Coverage != 0 {
		t.Fatal("empty collection coverage must be 0")
	}
	if len(res.Seeds) != 4 {
		t.Fatalf("should pad to k seeds, got %d", len(res.Seeds))
	}
	if res.Influence(20) != 0 {
		t.Fatal("influence over empty collection must be 0")
	}
}

func TestGreedyFirstSeedIsMaxFrequency(t *testing.T) {
	// k=1 greedy must pick a node of maximum occurrence count.
	col := buildCollection(t, 25, 120, 500, 17)
	res := Greedy(col, col.Len(), 1)
	var best int64
	for v := uint32(0); v < 25; v++ {
		if c := CoverageOf(col, []uint32{v}, col.Len()); c > best {
			best = c
		}
	}
	if res.Coverage != best {
		t.Fatalf("k=1 coverage %d, max single-node coverage %d", res.Coverage, best)
	}
}

func TestGreedyMonotoneInK(t *testing.T) {
	col := buildCollection(t, 40, 250, 700, 19)
	prev := int64(-1)
	for k := 1; k <= 10; k++ {
		res := Greedy(col, col.Len(), k)
		if res.Coverage < prev {
			t.Fatalf("coverage decreased at k=%d", k)
		}
		prev = res.Coverage
	}
}

func TestInfluenceScaling(t *testing.T) {
	res := Result{Coverage: 50, Upto: 200}
	if inf := res.Influence(1000); inf != 250 {
		t.Fatalf("influence %v want 250", inf)
	}
	empty := Result{}
	if empty.Influence(1000) != 0 {
		t.Fatal("zero upto must give zero influence")
	}
}

func TestGreedyPropertyCoverageNeverExceedsUpto(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		col := buildCollection(t, 15, 50, 80, seed%97)
		k := int(kRaw%15) + 1
		res := Greedy(col, col.Len(), k)
		return res.Coverage <= int64(col.Len()) && len(res.Seeds) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGreedyK50(b *testing.B) {
	col := buildCollection(b, 5000, 30000, 50000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(col, col.Len(), 50)
	}
}

func TestGreedyDeterministic(t *testing.T) {
	col := buildCollection(t, 60, 400, 900, 33)
	a := Greedy(col, col.Len(), 7)
	b := Greedy(col, col.Len(), 7)
	if a.Coverage != b.Coverage || len(a.Seeds) != len(b.Seeds) {
		t.Fatal("greedy not deterministic")
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatal("greedy seed order not deterministic")
		}
	}
}
