// Package graph implements the directed, edge-weighted network substrate the
// paper operates on (§2): G = (V, E, w) with w(u,v) ∈ [0,1] interpreted as
// influence probabilities. The representation is a dual CSR (compressed
// sparse row) — one adjacency in forward orientation for diffusion
// simulation, one in reverse orientation for RIS sampling. Nothing derived
// from them is stored: the two CSRs are the whole graph.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"stopandstare/internal/mapfile"
)

// Graph is an immutable directed weighted graph in dual-CSR form.
// Node ids are dense in [0, NumNodes()). The arrays are heap slices, or
// windows of the read-only mapping of a graph opened with OpenMapped, held
// until Close. They are embedded, so every accessor below runs on plain
// slices either way. The graph also carries what is derived from it once
// (derived.go).
type Graph struct {
	n int
	sections
	mapping []byte // the .sasg mapping the sections alias; nil for a heap graph
	plans   [PlanSlots]atomic.Pointer[Slot]
	forward Slot // CheckForward's result
}

// sections holds the dual-CSR arrays of one graph (sasg.go's on-disk layout
// mirrors it field by field).
type sections struct {
	outIdx []int64   // len n+1
	outAdj []uint32  // len m, per-source sorted by destination
	outW   []float32 // parallel to outAdj
	inIdx  []int64   // len n+1
	inAdj  []uint32  // len m, per-destination sorted by source
	inW    []float32 // parallel to inAdj
}

// newHeapGraph wraps freshly built sections in a Graph.
func newHeapGraph(n int, s sections) *Graph { return &Graph{n: n, sections: s} }

// ResidentBytes reports the graph arrays' private heap footprint (0 for a
// mapped graph: its arrays alias the file mapping).
func (g *Graph) ResidentBytes() int64 {
	if g.mapping != nil {
		return 0
	}
	return int64(len(g.outIdx)+len(g.inIdx))*8 +
		int64(len(g.outAdj)+len(g.inAdj)+len(g.outW)+len(g.inW))*4
}

// MappedBytes reports the bytes aliasing a read-only file mapping (0 for a
// heap graph). They are shared across processes and reclaimable by the
// kernel.
func (g *Graph) MappedBytes() int64 { return int64(len(g.mapping)) }

// Mapped reports whether the graph's arrays alias a file mapping.
func (g *Graph) Mapped() bool { return g.mapping != nil }

// Close unmaps a mapped graph (on a heap graph, or again, it does nothing):
// every slice the accessors returned becomes invalid, so no sampler, session
// or simulation may run on the graph during or after it. A graph unmaps here
// and never from a finalizer: its compiled plans alias its sections with no
// Go reference to the mapping, so the collector cannot see its last reader.
func (g *Graph) Close() error {
	m := g.mapping
	if m == nil {
		return nil
	}
	g.mapping = nil
	return mapfile.Unmap(m)
}

// Errors returned by construction and validation.
var (
	ErrNoNodes     = errors.New("graph: graph must have at least one node")
	ErrBadEndpoint = errors.New("graph: edge endpoint out of range")
	ErrBadWeight   = errors.New("graph: edge weight outside [0,1]")
	ErrLTViolation = errors.New("graph: LT model requires sum of incoming weights <= 1")
	// ErrBadContent reports section content no valid graph has: offsets out
	// of order, an adjacency id that is not a node, a weight that is not a
	// probability. Every *ContentError matches it. A .sasg open checks
	// structure only, so such content surfaces at first use: in the plan
	// compile for the reverse sections, in CheckForward for the forward ones.
	ErrBadContent = errors.New("graph: bad content")
)

// ContentError locates a content violation: the section, the index in it,
// and the rule it breaks (ErrBadEndpoint, ErrBadWeight, ErrLTViolation, or
// nil for an offset out of order). For an LT in-weight sum, Section is
// "inW" and Index is the node.
type ContentError struct {
	Section string
	Index   int64
	Err     error
}

func (e *ContentError) Error() string {
	rule := "offset out of order"
	if e.Err != nil {
		rule = e.Err.Error()
	}
	return fmt.Sprintf("%v: %s[%d]: %s", ErrBadContent, e.Section, e.Index, rule)
}

// Unwrap makes errors.Is match ErrBadContent and the rule's sentinel.
func (e *ContentError) Unwrap() []error {
	if e.Err == nil {
		return []error{ErrBadContent}
	}
	return []error{ErrBadContent, e.Err}
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns |E| (after de-duplication and self-loop removal).
func (g *Graph) NumEdges() int64 { return int64(len(g.outAdj)) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v uint32) int {
	return int(g.outIdx[v+1] - g.outIdx[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v uint32) int {
	return int(g.inIdx[v+1] - g.inIdx[v])
}

// OutNeighbors returns v's out-neighbour ids and the matching edge weights.
// The returned slices alias internal storage and must not be modified.
func (g *Graph) OutNeighbors(v uint32) ([]uint32, []float32) {
	lo, hi := g.outIdx[v], g.outIdx[v+1]
	return g.outAdj[lo:hi], g.outW[lo:hi]
}

// InNeighbors returns v's in-neighbour ids and the matching edge weights.
// The returned slices alias internal storage and must not be modified.
func (g *Graph) InNeighbors(v uint32) ([]uint32, []float32) {
	lo, hi := g.inIdx[v], g.inIdx[v+1]
	return g.inAdj[lo:hi], g.inW[lo:hi]
}

// InWeightSum returns Σ_u w(u,v), the total incoming influence weight of v,
// summed in float64 over v's in-edges in CSR order. Under the LT model this
// must be ≤ 1 (§2.1).
func (g *Graph) InWeightSum(v uint32) float64 {
	sum := 0.0
	for _, w := range g.inW[g.inIdx[v]:g.inIdx[v+1]] {
		sum += float64(w)
	}
	return sum
}

// ReverseCSR exposes the reverse-adjacency arrays directly: idx has length
// n+1 and node v's in-edges are adj[idx[v]:idx[v+1]] (sources) with weights
// w[idx[v]:idx[v+1]]. This is the plan-facing accessor the compiled sampling
// kernels (internal/ris.Plan) are built on: a plan compiler sweeps the whole
// reverse CSR once without n accessor calls, and the fused kernels walk adj
// in place instead of re-slicing through InNeighbors per node. The returned
// slices alias internal storage and must not be modified.
func (g *Graph) ReverseCSR() (idx []int64, adj []uint32, w []float32) {
	return g.inIdx, g.inAdj, g.inW
}

// EdgeWeight returns w(u,v) and whether the edge (u,v) exists.
func (g *Graph) EdgeWeight(u, v uint32) (float64, bool) {
	lo, hi := int(g.outIdx[u]), int(g.outIdx[u+1])
	i := lo + sort.Search(hi-lo, func(k int) bool { return g.outAdj[lo+k] >= v })
	if i < hi && g.outAdj[i] == v {
		return float64(g.outW[i]), true
	}
	return 0, false
}

// HasEdge reports whether the directed edge (u,v) exists.
func (g *Graph) HasEdge(u, v uint32) bool {
	_, ok := g.EdgeWeight(u, v)
	return ok
}

// Reverse returns the transpose graph (every arc flipped, weights kept).
// RIS on G is forward reachability on Reverse(G); exposing it makes that
// equivalence testable.
func (g *Graph) Reverse() (*Graph, error) {
	b := NewBuilder(g.n)
	for v := 0; v < g.n; v++ {
		adj, ws := g.OutNeighbors(uint32(v))
		for i, u := range adj {
			b.AddEdge(u, uint32(v), float64(ws[i]))
		}
	}
	return b.Build(BuildOptions{})
}

// CheckLT validates the LT side condition Σ_u w(u,v) ≤ 1 for every node,
// returning a *ContentError for the first node whose in-edge window is out
// of order or whose sum breaks it (Section "inW", Index the node, Err
// ErrLTViolation), the error the LT plan compile returns for it.
func (g *Graph) CheckLT() error {
	const tol = 1e-6
	for v := 0; v < g.n; v++ {
		if _, _, err := Span("inIdx", g.inIdx, v, int64(len(g.inAdj))); err != nil {
			return err
		}
		if sum := g.InWeightSum(uint32(v)); sum > 1+tol {
			return &ContentError{Section: "inW", Index: int64(v), Err: ErrLTViolation}
		}
	}
	return nil
}

// Span returns node v's window idx[v]:idx[v+1] of the CSR offset section
// named section, over edges entries, or the *ContentError of an offset out
// of order: the window must be monotone and within the entries (the ends
// of idx, 0 and edges, are checked at open).
func Span(section string, idx []int64, v int, edges int64) (lo, hi int64, err error) {
	lo, hi = idx[v], idx[v+1]
	if hi < lo || hi > edges {
		return 0, 0, &ContentError{Section: section, Index: int64(v) + 1}
	}
	return lo, hi, nil
}

// Bytes returns the approximate total footprint of the graph arrays,
// resident plus mapped. Use ResidentBytes/MappedBytes for the split: mapped
// bytes are kernel-shared file pages, not private process memory.
func (g *Graph) Bytes() int64 { return g.ResidentBytes() + g.MappedBytes() }

// Stats summarises a graph (Table 2 columns plus a few extras).
type Stats struct {
	Nodes        int
	Edges        int64
	AvgOutDegree float64
	MaxOutDegree int
	MaxInDegree  int
	Isolated     int     // nodes with no in- or out-edges
	MaxInWeight  float64 // max over v of Σ_u w(u,v)
	LTValid      bool
}

// Stats computes summary statistics in one pass. It checks the offsets it
// reads, so a graph whose offset sections are out of order (a .sasg open
// checks structure only) returns their *ContentError instead.
func (g *Graph) Stats() (Stats, error) {
	s := Stats{Nodes: g.n, Edges: g.NumEdges(), LTValid: true}
	if g.n > 0 {
		s.AvgOutDegree = float64(s.Edges) / float64(g.n)
	}
	for v := 0; v < g.n; v++ {
		olo, ohi, err := Span("outIdx", g.outIdx, v, s.Edges)
		if err != nil {
			return Stats{}, err
		}
		ilo, ihi, err := Span("inIdx", g.inIdx, v, int64(len(g.inAdj)))
		if err != nil {
			return Stats{}, err
		}
		od, id := int(ohi-olo), int(ihi-ilo)
		if od > s.MaxOutDegree {
			s.MaxOutDegree = od
		}
		if id > s.MaxInDegree {
			s.MaxInDegree = id
		}
		if od == 0 && id == 0 {
			s.Isolated++
		}
		if sum := g.InWeightSum(uint32(v)); sum > s.MaxInWeight {
			s.MaxInWeight = sum
		}
	}
	if s.MaxInWeight > 1+1e-6 {
		s.LTValid = false
	}
	return s, nil
}

// String implements fmt.Stringer with a one-line summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d avgdeg=%.2f}", g.n, g.NumEdges(),
		float64(g.NumEdges())/math.Max(1, float64(g.n)))
}
