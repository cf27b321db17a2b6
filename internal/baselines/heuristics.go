package baselines

import (
	"fmt"
	"sort"

	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// HighDegree returns the k nodes with the highest out-degree — the classic
// degree-centrality heuristic (no approximation guarantee).
func HighDegree(g *graph.Graph, k int) ([]uint32, error) {
	n := g.NumNodes()
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d n=%d", ErrBadK, k, n)
	}
	nodes := make([]uint32, n)
	for v := range nodes {
		nodes[v] = uint32(v)
	}
	sort.Slice(nodes, func(i, j int) bool {
		di, dj := g.OutDegree(nodes[i]), g.OutDegree(nodes[j])
		if di != dj {
			return di > dj
		}
		return nodes[i] < nodes[j]
	})
	return nodes[:k], nil
}

// RandomSeeds returns k distinct uniformly random nodes.
func RandomSeeds(g *graph.Graph, k int, seed uint64) ([]uint32, error) {
	n := g.NumNodes()
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d n=%d", ErrBadK, k, n)
	}
	r := rng.New(seed)
	perm := make([]int, n)
	r.Perm(perm)
	seeds := make([]uint32, k)
	for i := 0; i < k; i++ {
		seeds[i] = uint32(perm[i])
	}
	return seeds, nil
}
