package stopandstare

import (
	"io"

	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

// Graph is a directed, weighted influence graph in dual-CSR form.
// See NewGraphBuilder, LoadGraph, GeneratePreset.
type Graph = graph.Graph

// GraphBuilder accumulates edges and builds an immutable Graph.
type GraphBuilder = graph.Builder

// GraphStats summarises a graph (Table 2 columns).
type GraphStats = graph.Stats

// Edge is a (source, destination, weight) triple.
type Edge = graph.Edge

// BuildOptions selects the edge-weight model at build time.
type BuildOptions = graph.BuildOptions

// Weight models (see the paper §7.1: experiments use WeightedCascade).
const (
	// WeightsAsGiven keeps the caller-provided weights.
	WeightsAsGiven = graph.WeightsAsGiven
	// WeightedCascade sets w(u,v) = 1/d_in(v).
	WeightedCascade = graph.WeightedCascade
	// UniformWeights assigns a constant probability.
	UniformWeights = graph.Uniform
	// TrivalencyWeights hashes each edge into {0.1, 0.01, 0.001}.
	TrivalencyWeights = graph.Trivalency
)

// ErrBadGraphContent matches the error returned for a graph whose sections
// hold content no valid graph has: offsets out of order, an adjacency id
// that is not a node, a weight outside [0, 1], or, under LT, an in-weight
// sum above 1. Opening a .sasg checks structure only; content is checked
// once per graph, at first use: the first sampling of each model, and the
// first simulation.
var ErrBadGraphContent = graph.ErrBadContent

// NewGraphBuilder creates a builder for an n-node graph.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// NewGraph builds a graph directly from an edge list.
func NewGraph(n int, edges []Edge, opt BuildOptions) (*Graph, error) {
	return graph.FromEdges(n, edges, opt)
}

// LoadGraphOptions controls text edge-list parsing.
type LoadGraphOptions = graph.LoadOptions

// LoadGraph parses a whitespace-separated "u v [w]" edge list.
func LoadGraph(r io.Reader, opt LoadGraphOptions) (*Graph, error) {
	return graph.LoadEdgeList(r, opt)
}

// LoadGraphFile parses an edge-list file, decompressing it when the path
// ends in ".gz" (the form SNAP distributes its datasets in).
func LoadGraphFile(path string, opt LoadGraphOptions) (*Graph, error) {
	return graph.LoadEdgeListFile(path, opt)
}

// OpenGraphFile opens a .sasg graph file (written by Graph.WriteMappedFile
// or imgen). On a little-endian unix host the graph's arrays alias a
// read-only file mapping, so opening is O(1) regardless of edge count and
// the pages are shared by every process serving the same file; elsewhere
// the file is read onto the heap. Call Graph.Close to release the mapping
// when retiring the graph, once nothing samples or simulates on it.
func OpenGraphFile(path string) (*Graph, error) {
	return graph.OpenMapped(path)
}

// GeneratePreset builds a synthetic stand-in for one of the paper's Table 2
// datasets ("nethept", "netphy", "enron", "epinions", "dblp", "orkut",
// "twitter", "friendster") at the given scale ∈ (0,1], with the paper's
// weighted-cascade edge weights.
func GeneratePreset(name string, scale float64, seed uint64) (*Graph, error) {
	p, err := gen.PresetByName(name)
	if err != nil {
		return nil, err
	}
	return p.Generate(scale, seed, BuildOptions{Model: WeightedCascade})
}

// PresetNames lists the available dataset presets in Table 2 order.
func PresetNames() []string { return gen.PresetNames() }

// GenerateErdosRenyi builds a directed G(n,m) graph with WC weights.
func GenerateErdosRenyi(n int, m int64, seed uint64) (*Graph, error) {
	return gen.ErdosRenyi(n, m, seed, BuildOptions{Model: WeightedCascade})
}

// GenerateBarabasiAlbert builds a preferential-attachment graph (undirected
// semantics, two arcs per edge) with WC weights.
func GenerateBarabasiAlbert(n, attach int, seed uint64) (*Graph, error) {
	return gen.BarabasiAlbert(n, attach, seed, BuildOptions{Model: WeightedCascade})
}

// GeneratePowerLaw builds a directed Chung–Lu power-law graph with ~m arcs
// and exponent gamma, with WC weights.
func GeneratePowerLaw(n int, m int64, gamma float64, seed uint64) (*Graph, error) {
	return gen.ChungLu(n, m, gamma, seed, BuildOptions{Model: WeightedCascade})
}
