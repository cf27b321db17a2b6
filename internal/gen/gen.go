// Package gen provides the synthetic network generators that stand in for
// the paper's eight evaluation datasets (Table 2). The real datasets (SNAP
// crawls of Twitter, Friendster, etc.) are not redistributable and far
// exceed a single machine, so each dataset is replaced by a generator
// matched on the properties that drive RIS behaviour: node count, edge
// count, degree skew, and directedness. The presets draw ChungLu power-law
// graphs; ErdosRenyi, BarabasiAlbert and WattsStrogatz are the other raw
// generators (imgen -generator), and GenerateTopic adds the TVM topic
// weights to any graph.
package gen

import (
	"fmt"
	"math"

	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// ErdosRenyi generates a directed G(n, m) graph: m distinct uniformly random
// arcs with no self-loops.
func ErdosRenyi(n int, m int64, seed uint64, opt graph.BuildOptions) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: ErdosRenyi needs n >= 2, got %d", n)
	}
	maxArcs := int64(n) * int64(n-1)
	if m > maxArcs {
		return nil, fmt.Errorf("gen: m=%d exceeds n(n-1)=%d", m, maxArcs)
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	b.Reserve(int(m))
	seen := newArcSet(m)
	for int64(seen.len()) < m {
		u := uint32(r.Intn(n))
		v := uint32(r.Intn(n))
		if u != v && seen.add(uint64(u)<<32|uint64(v)) {
			b.AddEdge(u, v, 1)
		}
	}
	return b.Build(opt)
}

// BarabasiAlbert generates a preferential-attachment graph: each new node
// attaches to `attach` existing nodes chosen proportionally to degree.
// Edges are emitted as two arcs (undirected semantics), matching the paper's
// handling of undirected networks.
func BarabasiAlbert(n, attach int, seed uint64, opt graph.BuildOptions) (*graph.Graph, error) {
	if attach < 1 || n <= attach {
		return nil, fmt.Errorf("gen: BarabasiAlbert needs 1 <= attach < n (attach=%d n=%d)", attach, n)
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	// repeated-node list implements preferential attachment in O(1)/draw
	targets := make([]uint32, 0, 2*n*attach)
	// seed clique of attach+1 nodes
	for i := 0; i <= attach; i++ {
		for j := 0; j < i; j++ {
			b.AddUndirected(uint32(i), uint32(j), 1)
			targets = append(targets, uint32(i), uint32(j))
		}
	}
	// picked is kept as a slice: map iteration order is randomized in Go
	// and would break seed-determinism of the emitted edge order (which
	// feeds back into preferential attachment via the targets list).
	picked := make([]uint32, 0, attach)
	for v := attach + 1; v < n; v++ {
		picked = picked[:0]
		for len(picked) < attach {
			u := targets[r.Intn(len(targets))]
			dup := false
			for _, p := range picked {
				if p == u {
					dup = true
					break
				}
			}
			if !dup {
				picked = append(picked, u)
			}
		}
		for _, u := range picked {
			b.AddUndirected(uint32(v), u, 1)
			targets = append(targets, uint32(v), u)
		}
	}
	return b.Build(opt)
}

// WattsStrogatz generates a small-world ring lattice with k neighbours per
// side and rewiring probability beta, emitted as two arcs per edge.
func WattsStrogatz(n, k int, beta float64, seed uint64, opt graph.BuildOptions) (*graph.Graph, error) {
	if k < 1 || 2*k >= n {
		return nil, fmt.Errorf("gen: WattsStrogatz needs 1 <= k and 2k < n (k=%d n=%d)", k, n)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("gen: WattsStrogatz beta must be in [0,1], got %v", beta)
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if r.Float64() < beta {
				for {
					w := r.Intn(n)
					if w != u {
						v = w
						break
					}
				}
			}
			b.AddUndirected(uint32(u), uint32(v), 1)
		}
	}
	return b.Build(opt)
}

// ChungLu generates a directed power-law graph with ~m arcs whose expected
// in/out degree sequence follows weight w_i ∝ (i + i0)^(-1/(gamma-1)); this
// is the standard Chung–Lu construction that reproduces the heavy-tailed
// degree distributions of the SNAP social networks (gamma ≈ 2.1 for OSNs,
// ≈ 2.6 for citation graphs).
func ChungLu(n int, m int64, gamma float64, seed uint64, opt graph.BuildOptions) (*graph.Graph, error) {
	b, err := chungLu(n, m, gamma, seed, false)
	if err != nil {
		return nil, err
	}
	return b.Build(opt)
}

// chungLu draws ChungLu's distinct arcs into a builder. With undirected set
// it adds each drawn arc in both directions, the paper's treatment of an
// undirected network (§7.1 Remark), so no intermediate graph is built.
func chungLu(n int, m int64, gamma float64, seed uint64, undirected bool) (*graph.Builder, error) {
	if n < 2 || m < 1 {
		return nil, fmt.Errorf("gen: ChungLu needs n >= 2, m >= 1 (n=%d m=%d)", n, m)
	}
	if gamma <= 1 {
		return nil, fmt.Errorf("gen: ChungLu gamma must exceed 1, got %v", gamma)
	}
	r := rng.New(seed)
	w := make([]float64, n)
	alpha := 1 / (gamma - 1)
	const i0 = 10 // offset tames the maximum degree so m is achievable
	for i := 0; i < n; i++ {
		w[i] = math.Pow(float64(i)+i0, -alpha)
	}
	// Shuffle weights so node id carries no degree information.
	r.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
	al, err := rng.NewAlias(w)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(n)
	if undirected {
		b.Reserve(2 * int(m))
	} else {
		b.Reserve(int(m))
	}
	seen := newArcSet(m)
	for attempts := int64(0); int64(seen.len()) < m && attempts < 20*m; attempts++ {
		u := uint32(al.Sample(r))
		v := uint32(al.Sample(r))
		if u == v || !seen.add(uint64(u)<<32|uint64(v)) {
			continue
		}
		if undirected {
			b.AddUndirected(u, v, 1)
		} else {
			b.AddEdge(u, v, 1)
		}
	}
	if int64(seen.len()) < m/2 {
		return nil, fmt.Errorf("gen: ChungLu saturated at %d of %d edges", seen.len(), m)
	}
	return b, nil
}
