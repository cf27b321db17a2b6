package graph

import (
	"fmt"
	"math"
	"slices"
)

// WeightModel selects how edge influence probabilities are assigned at build
// time. The paper's experiments (§7.1) use WeightedCascade exclusively; the
// other models are provided for ablations and follow the conventions of the
// IM literature.
type WeightModel uint8

const (
	// WeightsAsGiven keeps the weights passed to AddEdge.
	WeightsAsGiven WeightModel = iota
	// WeightedCascade sets w(u,v) = 1/d_in(v) (§7.1: "the weight of the
	// edge (u,v) is calculated as 1/din(v)"). Valid for both IC and LT.
	WeightedCascade
	// Uniform sets every weight to BuildOptions.UniformP.
	Uniform
	// Trivalency picks each weight from {0.1, 0.01, 0.001} by a
	// deterministic hash of (u, v, TrivalencySeed).
	Trivalency
)

// BuildOptions controls Builder.Build.
type BuildOptions struct {
	Model          WeightModel
	UniformP       float64 // used by Uniform
	TrivalencySeed uint64  // used by Trivalency
}

// Builder accumulates directed edges and produces an immutable Graph in
// O(m + n) time. Duplicate edges are merged (weights summed in AddEdge order,
// clamped to 1) and self-loops are dropped, matching the preprocessing used
// by the reference RIS codes. It holds 16 bytes per AddEdge call, and Build
// needs as much again while it runs.
type Builder struct {
	n     int
	edges []packedEdge
}

type packedEdge struct {
	key uint64 // u<<32 | v
	w   float32
}

// NewBuilder creates a builder for a graph with n nodes (ids 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NumNodes returns the node count the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// NumRawEdges returns the number of AddEdge calls so far (pre-dedup).
func (b *Builder) NumRawEdges() int { return len(b.edges) }

// AddEdge records the directed edge (u,v) with weight w.
// Endpoints and weights are validated at Build time.
func (b *Builder) AddEdge(u, v uint32, w float64) {
	b.edges = append(b.edges, packedEdge{key: uint64(u)<<32 | uint64(v), w: float32(w)})
}

// AddUndirected records both arcs (u,v) and (v,u) with weight w, the
// treatment the paper applies to Orkut and Friendster (§7.1 Remark).
func (b *Builder) AddUndirected(u, v uint32, w float64) {
	b.AddEdge(u, v, w)
	b.AddEdge(v, u, w)
}

// Reserve makes room for arcs more AddEdge calls without reallocating.
func (b *Builder) Reserve(arcs int) { b.edges = slices.Grow(b.edges, arcs) }

// Grow raises the node count (useful when streaming edges with unknown n).
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// trivalencyWeight deterministically hashes (u,v,seed) into {0.1,0.01,0.001}.
func trivalencyWeight(key, seed uint64) float64 {
	x := key ^ seed
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	switch x % 3 {
	case 0:
		return 0.1
	case 1:
		return 0.01
	default:
		return 0.001
	}
}

// Build validates, de-duplicates, applies the weight model, and assembles
// the dual-CSR graph in O(m + n) time: a stable two-pass counting sort of
// the arcs (by destination, then by source) replaces any comparison sort.
// Duplicate arcs merge by summing their weights in AddEdge order, clamped
// to 1. Besides the graph itself it needs one transient 16-byte-per-arc
// buffer and an (n+1)-entry count array.
//
// Build leaves the builder's arcs permuted into (u,v) order, self-loops
// last, but keeps every one of them in their relative AddEdge order, so the
// builder may be reused and a second Build returns the same graph.
func (b *Builder) Build(opt BuildOptions) (*Graph, error) {
	if b.n <= 0 {
		return nil, ErrNoNodes
	}
	n := b.n
	// Pass 1 counts: validate endpoints and weights, and count the arcs that
	// are not self-loops by destination.
	count := make([]int64, n+1)
	for _, e := range b.edges {
		u := uint32(e.key >> 32)
		v := uint32(e.key)
		if int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("%w: (%d,%d) with n=%d", ErrBadEndpoint, u, v, n)
		}
		if u == v {
			continue
		}
		if opt.Model == WeightsAsGiven {
			if w := float64(e.w); w < 0 || w > 1 || math.IsNaN(w) {
				return nil, fmt.Errorf("%w: w(%d,%d)=%v", ErrBadWeight, u, v, e.w)
			}
		}
		count[v+1]++
	}
	if opt.Model == Uniform && (opt.UniformP < 0 || opt.UniformP > 1) {
		return nil, fmt.Errorf("%w: uniform p=%v", ErrBadWeight, opt.UniformP)
	}
	for v := 0; v < n; v++ {
		count[v+1] += count[v]
	}
	kept := int(count[n])
	// Pass 1 scatters the arcs into tmp by destination, self-loops parked
	// after the kept arcs; pass 2 scatters them back by source, so b.edges
	// ends sorted by (u,v) with equal arcs in AddEdge order.
	tmp := make([]packedEdge, len(b.edges))
	loops := kept
	for _, e := range b.edges {
		u, v := uint32(e.key>>32), uint32(e.key)
		if u == v {
			tmp[loops] = e
			loops++
			continue
		}
		tmp[count[v]] = e
		count[v]++
	}
	clear(count)
	for _, e := range tmp[:kept] {
		count[e.key>>32+1]++
	}
	for u := 0; u < n; u++ {
		count[u+1] += count[u]
	}
	for _, e := range tmp[:kept] {
		u := e.key >> 32
		b.edges[count[u]] = e
		count[u]++
	}
	copy(b.edges[kept:], tmp[kept:])
	// Merge duplicates into tmp (sum weights, clamp to 1).
	edges := tmp[:0]
	for i := 0; i < kept; {
		j := i + 1
		w := float64(b.edges[i].w)
		for j < kept && b.edges[j].key == b.edges[i].key {
			w += float64(b.edges[j].w)
			j++
		}
		if w > 1 {
			w = 1
		}
		edges = append(edges, packedEdge{key: b.edges[i].key, w: float32(w)})
		i = j
	}
	m := len(edges)

	g := newHeapGraph(n, sections{
		outIdx: make([]int64, n+1),
		outAdj: make([]uint32, m),
		outW:   make([]float32, m),
		inIdx:  make([]int64, n+1),
		inAdj:  make([]uint32, m),
		inW:    make([]float32, m),
	})

	// Degree counting.
	for _, e := range edges {
		g.outIdx[uint32(e.key>>32)+1]++
		g.inIdx[uint32(e.key)+1]++
	}
	for v := 0; v < n; v++ {
		g.outIdx[v+1] += g.outIdx[v]
		g.inIdx[v+1] += g.inIdx[v]
	}

	// Resolve weights now that in-degrees are known.
	resolve := func(e packedEdge) float64 {
		switch opt.Model {
		case WeightedCascade:
			v := uint32(e.key)
			din := g.inIdx[v+1] - g.inIdx[v]
			return 1 / float64(din) // din ≥ 1: the edge itself enters v
		case Uniform:
			return opt.UniformP
		case Trivalency:
			return trivalencyWeight(e.key, opt.TrivalencySeed)
		default:
			return float64(e.w)
		}
	}

	// Fill-in pass. Edges are sorted by (u,v), so they are the out segments
	// in order; the count array, reused as a per-destination cursor, fills
	// the in segments sorted by source.
	inCur := count[:n]
	copy(inCur, g.inIdx[:n])
	for i, e := range edges {
		u := uint32(e.key >> 32)
		v := uint32(e.key)
		w := float32(resolve(e))
		g.outAdj[i] = v
		g.outW[i] = w
		ii := inCur[v]
		g.inAdj[ii] = u
		g.inW[ii] = w
		inCur[v] = ii + 1
	}
	return g, nil
}

// Edge is a convenience triple for FromEdges.
type Edge struct {
	U, V uint32
	W    float64
}

// FromEdges builds a graph directly from an edge list.
func FromEdges(n int, edges []Edge, opt BuildOptions) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V, e.W)
	}
	return b.Build(opt)
}
