package gen

import (
	"fmt"

	"stopandstare/internal/graph"
)

// Preset describes one of the paper's Table 2 datasets and how its synthetic
// stand-in is generated. Nodes/Edges are the full-size figures from Table 2;
// the generator is invoked at Nodes*scale / Edges*scale.
type Preset struct {
	Name       string
	Nodes      int
	Edges      int64
	AvgDegree  float64
	Directed   bool    // false => undirected source, two arcs per edge
	Gamma      float64 // Chung–Lu power-law exponent
	Discipline string
}

// Presets mirrors Table 2 of the paper.
var Presets = []Preset{
	{Name: "nethept", Nodes: 15233, Edges: 59000, AvgDegree: 4.1, Directed: true, Gamma: 2.6, Discipline: "citation"},
	{Name: "netphy", Nodes: 37154, Edges: 181000, AvgDegree: 13.4, Directed: true, Gamma: 2.6, Discipline: "citation"},
	{Name: "enron", Nodes: 36692, Edges: 184000, AvgDegree: 5.0, Directed: true, Gamma: 2.2, Discipline: "communication"},
	{Name: "epinions", Nodes: 131828, Edges: 841000, AvgDegree: 13.4, Directed: true, Gamma: 2.1, Discipline: "social"},
	{Name: "dblp", Nodes: 655000, Edges: 2000000, AvgDegree: 6.1, Directed: true, Gamma: 2.5, Discipline: "citation"},
	{Name: "orkut", Nodes: 3000000, Edges: 234000000, AvgDegree: 78, Directed: false, Gamma: 2.1, Discipline: "social"},
	{Name: "twitter", Nodes: 41700000, Edges: 1500000000, AvgDegree: 70.5, Directed: true, Gamma: 2.0, Discipline: "social"},
	{Name: "friendster", Nodes: 65600000, Edges: 3600000000, AvgDegree: 54.8, Directed: false, Gamma: 2.1, Discipline: "social"},
}

// PresetByName returns the preset with the given name.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("gen: unknown preset %q (have %v)", name, PresetNames())
}

// PresetNames lists the available preset names in Table 2 order.
func PresetNames() []string {
	names := make([]string, len(Presets))
	for i, p := range Presets {
		names[i] = p.Name
	}
	return names
}

// Generate builds the synthetic stand-in for the preset at the given scale
// (0 < scale ≤ 1; nodes and edges are multiplied by scale). The paper's
// weighted-cascade edge weights (§7.1) are applied via opt; pass
// graph.BuildOptions{Model: graph.WeightedCascade} for the paper's setting.
// An undirected preset draws m/2 edges and adds each as two arcs into the
// one builder, so it builds no intermediate graph.
func (p Preset) Generate(scale float64, seed uint64, opt graph.BuildOptions) (*graph.Graph, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("gen: scale must be in (0,1], got %v", scale)
	}
	n, m := p.ScaledSize(scale)
	if !p.Directed {
		m = max(m/2, int64(n))
	}
	b, err := chungLu(n, m, p.Gamma, seed, !p.Directed)
	if err != nil {
		return nil, err
	}
	return b.Build(opt)
}

// DefaultScales gives, for each preset, the default scale used by the
// benchmark harness so that every stand-in fits comfortably on a laptop
// while preserving Table 2's relative ordering of sizes.
var DefaultScales = map[string]float64{
	"nethept":    1.0,
	"netphy":     1.0,
	"enron":      1.0,
	"epinions":   0.5,
	"dblp":       0.1,
	"orkut":      0.01,
	"twitter":    0.002,
	"friendster": 0.001,
}

// ScaledSize reports the node/edge counts a preset generates at scale.
func (p Preset) ScaledSize(scale float64) (n int, m int64) {
	n = int(float64(p.Nodes) * scale)
	if n < 100 {
		n = 100
	}
	m = int64(float64(p.Edges) * scale)
	if m < int64(n) {
		m = int64(n)
	}
	return n, m
}
