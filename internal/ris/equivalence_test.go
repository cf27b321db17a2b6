package ris

import (
	"fmt"
	"math"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// TestRISEqualsForwardOnReverseGraph validates the defining identity of
// reverse influence sampling: the probability that a random IC RR set of G
// rooted at v contains u equals the probability that u activates v —
// which equals the probability that v activates u in the transpose graph.
// We check the aggregate form: for a fixed seed set S,
// Pr[S ∩ R ≠ ∅ | root v] = Pr[cascade from S reaches v], by comparing
// Lemma 1's estimate on G against forward MC on G itself (already done in
// ris_test) *and* reachability symmetry through Reverse().
func TestRISEqualsForwardOnReverseGraph(t *testing.T) {
	g := mustGraph(t, 6, []graph.Edge{
		{U: 0, V: 1, W: 0.7}, {U: 1, V: 2, W: 0.4}, {U: 2, V: 3, W: 0.6},
		{U: 0, V: 4, W: 0.3}, {U: 4, V: 5, W: 0.9}, {U: 1, V: 5, W: 0.2},
	})
	rev, err := g.Reverse()
	if err != nil {
		t.Fatal(err)
	}
	// I_G({0}) must equal the expected number of nodes that can reach 0 in
	// the reverse graph's IC cascades — i.e. I_rev is not generally equal,
	// but single-pair activation probabilities are symmetric:
	// Pr_G[0 activates 3] = Pr_rev[3 activates 0].
	pForward := pairActivation(t, g, 0, 3)
	pReverse := pairActivation(t, rev, 3, 0)
	if math.Abs(pForward-pReverse) > 0.01 {
		t.Fatalf("activation symmetry violated: %v vs %v", pForward, pReverse)
	}
	// And the RR-set view: frequency of node 0 in RR sets of G rooted
	// anywhere, times n, equals I({0}).
	exact, err := diffusion.ExactIC(g, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	col := NewShardedCollection(s, 3, 1, 2)
	const N = 200000
	col.GenerateTo(N)
	freq := float64(len(gatherPostings(col, 0, 0, N))) / N * s.Scale()
	if math.Abs(freq-exact) > 0.05 {
		t.Fatalf("RR frequency estimate %v vs exact %v", freq, exact)
	}
}

// TestArenaBitIdenticalAcrossWorkersAndSchedules pins the determinism
// contract of the arena-backed store: for a fixed seed, the arena contents,
// aggregates and CSR index postings equal the definition-level reference
// stream regardless of worker count AND regardless of how the stream growth
// is sliced into GenerateTo calls (which changes the CSR block boundaries).
func TestArenaBitIdenticalAcrossWorkersAndSchedules(t *testing.T) {
	g, err := gen.ChungLu(250, 1400, 2.1, 83, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := mustSampler(t, g, model)
		ref := refStream(s, 123, 2500)
		variants := []struct {
			name     string
			workers  int
			schedule []int
		}{
			{"w4-one-shot", 4, []int{2500}},
			{"w2-doubling", 2, []int{100, 200, 400, 800, 1600, 2500}},
			{"w8-irregular", 8, []int{1, 3, 700, 701, 2499, 2500}},
		}
		for _, vc := range variants {
			col := NewShardedCollection(s, 123, 1, vc.workers)
			for _, target := range vc.schedule {
				col.GenerateTo(target)
			}
			// Sets, aggregates, and the postings each variant's own CSR block
			// boundaries present.
			AssertStoresEqual(t, fmt.Sprintf("%v/%s", model, vc.name), ref, col)
		}
	}
}

// TestPostingsMatchIndexUpto checks the zero-allocation postings iterator
// against the arena-scan index (scanIndex) for cutoffs that fall inside, on,
// and beyond CSR block boundaries.
func TestPostingsMatchIndexUpto(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 700, 19, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	col := NewShardedCollection(s, 7, 1, 3)
	for _, target := range []int{300, 600, 1200} { // three CSR blocks
		col.GenerateTo(target)
	}
	for _, upto := range []int{0, 1, 299, 300, 301, 600, 750, 1200, 5000} {
		for v := uint32(0); int(v) < g.NumNodes(); v += 5 {
			want := scanIndex(col, v, upto)
			var got []int32
			it := col.PostingsRange(v, 0, upto)
			prev := int32(-1)
			for {
				run, ok := it.Next()
				if !ok {
					break
				}
				if len(run) == 0 {
					t.Fatal("iterator yielded an empty run")
				}
				for _, id := range run {
					if id <= prev {
						t.Fatalf("postings not strictly ascending at upto=%d", upto)
					}
					prev = id
					got = append(got, id)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("upto=%d v=%d: iterator %d ids, gather %d", upto, v, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("upto=%d v=%d: posting %d differs", upto, v, i)
				}
			}
		}
	}
}

// pairActivation estimates Pr[seed activates target] under IC by MC.
func pairActivation(t *testing.T, g *graph.Graph, seed, target uint32) float64 {
	t.Helper()
	const runs = 200000
	hits := 0
	for i := 0; i < runs; i++ {
		if icReaches(g, seed, target, uint64(i)) {
			hits++
		}
	}
	return float64(hits) / runs
}

// icReaches samples one IC possible world lazily and reports whether
// target is reached from seed.
func icReaches(g *graph.Graph, seed, target uint32, trial uint64) bool {
	r := rng.NewStream(7777, trial)
	visited := map[uint32]bool{seed: true}
	queue := []uint32{seed}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if u == target {
			return true
		}
		adj, ws := g.OutNeighbors(u)
		for i, v := range adj {
			if visited[v] {
				continue
			}
			if r.Float64() < float64(ws[i]) {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	return visited[target]
}
