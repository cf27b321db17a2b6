package graph

// This file is the storage seam behind Graph: the six CSR arrays live in a
// `sections` value, and a View handle says where those arrays' backing bytes
// actually are — ordinary heap allocations (heapView: everything built by the
// Builder, LoadEdgeList, the generators, or a decoded .sasg file) or a
// read-only file mapping whose pages the kernel shares across every process
// that opened the same .sasg file (mapView, see OpenMapped). The accessor hot paths never go
// through the interface: Graph embeds the sections directly, so OutNeighbors,
// InNeighbors and ReverseCSR compile to the same code for both backends.
// The View only answers accounting (resident vs mapped bytes) and lifecycle
// (Close) questions.

// sections holds the dual-CSR arrays of one graph. For a heap graph they are
// ordinary slices; for a mapped graph they alias disjoint 64-byte-aligned
// windows of one read-only mmap (see sasg.go for the on-disk layout, which
// mirrors this struct field by field).
type sections struct {
	outIdx []int64   // len n+1
	outAdj []uint32  // len m, per-source sorted by destination
	outW   []float32 // parallel to outAdj
	inIdx  []int64   // len n+1
	inAdj  []uint32  // len m, per-destination sorted by source
	inW    []float32 // parallel to inAdj
}

// bytes is the raw footprint of the arrays, independent of backing.
func (s *sections) bytes() int64 {
	b := int64(len(s.outIdx)+len(s.inIdx)) * 8
	b += int64(len(s.outAdj)+len(s.inAdj)) * 4
	b += int64(len(s.outW)+len(s.inW)) * 4
	return b
}

// View is a Graph's storage backend handle. It does not expose the arrays —
// Graph itself does, identically for every backend — it answers where their
// bytes live and owns the backend's lifecycle.
type View interface {
	// ResidentBytes is the portion of the CSR arrays held as private heap
	// memory (counted against this process's RSS by the allocator).
	ResidentBytes() int64
	// MappedBytes is the portion aliasing a read-only file mapping: paged in
	// on demand and shared with every other process mapping the same file,
	// so it is not private memory even when fully resident.
	MappedBytes() int64
	// Kind is "heap" or "mapped".
	Kind() string
	// Close releases backend resources. Closing a mapped view unmaps the
	// file — every slice of the graph becomes invalid; heap views are no-ops.
	Close() error
}

// heapView backs graphs whose arrays are ordinary allocations.
type heapView struct{ bytes int64 }

func (v heapView) ResidentBytes() int64 { return v.bytes }
func (v heapView) MappedBytes() int64   { return 0 }
func (v heapView) Kind() string         { return "heap" }
func (v heapView) Close() error         { return nil }

// newHeapGraph wraps freshly built sections in a Graph with heap accounting.
func newHeapGraph(n int, s sections) *Graph {
	return &Graph{n: n, sections: s, view: heapView{bytes: s.bytes()}}
}

// View returns the graph's storage backend handle.
func (g *Graph) View() View { return g.view }

// ResidentBytes reports the graph arrays' private heap footprint (0 for a
// mapped graph: its arrays alias the file mapping).
func (g *Graph) ResidentBytes() int64 { return g.view.ResidentBytes() }

// MappedBytes reports the bytes aliasing a read-only file mapping (0 for a
// heap graph). Mapped bytes are shared across processes and reclaimable by
// the kernel, so they are accounted separately from resident memory.
func (g *Graph) MappedBytes() int64 { return g.view.MappedBytes() }

// Mapped reports whether the graph's arrays alias a file mapping.
func (g *Graph) Mapped() bool { return g.view.MappedBytes() > 0 }

// Close releases the graph's storage backend. For a mapped graph this unmaps
// the file and every slice previously returned by accessors becomes invalid;
// for heap graphs it is a no-op. The graph's compiled sampling plans alias
// its reverse sections, so no sampler, session or simulation on the graph
// may run during or after Close; the plans themselves need no release; they
// are collected with the graph.
func (g *Graph) Close() error { return g.view.Close() }
