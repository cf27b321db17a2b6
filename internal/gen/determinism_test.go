package gen

import (
	"testing"

	"stopandstare/internal/graph"
)

func graphsEqual(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumNodes(); v++ {
		a1, w1 := a.OutNeighbors(uint32(v))
		a2, w2 := b.OutNeighbors(uint32(v))
		if len(a1) != len(a2) {
			return false
		}
		for i := range a1 {
			if a1[i] != a2[i] || w1[i] != w2[i] {
				return false
			}
		}
	}
	return true
}

func TestGeneratorsDeterministic(t *testing.T) {
	opt := graph.BuildOptions{Model: graph.WeightedCascade}
	cases := []struct {
		name string
		gen  func(seed uint64) (*graph.Graph, error)
	}{
		{"chunglu", func(s uint64) (*graph.Graph, error) { return ChungLu(500, 2500, 2.1, s, opt) }},
		{"ba", func(s uint64) (*graph.Graph, error) { return BarabasiAlbert(300, 3, s, opt) }},
		{"ws", func(s uint64) (*graph.Graph, error) { return WattsStrogatz(300, 3, 0.2, s, opt) }},
	}
	for _, c := range cases {
		g1, err := c.gen(42)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g2, err := c.gen(42)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !graphsEqual(g1, g2) {
			t.Fatalf("%s: not deterministic for equal seeds", c.name)
		}
		g3, err := c.gen(43)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if graphsEqual(g1, g3) {
			t.Fatalf("%s: different seeds produced identical graphs", c.name)
		}
	}
}

func TestTopicDeterministic(t *testing.T) {
	g, err := ChungLu(1000, 5000, 2.1, 7, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := GenerateTopic(g, DefaultTopicSpecs[0], 99)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := GenerateTopic(g, DefaultTopicSpecs[0], 99)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Users != t2.Users || t1.Gamma != t2.Gamma {
		t.Fatal("topic generation not deterministic")
	}
	for i := range t1.Weights {
		if t1.Weights[i] != t2.Weights[i] {
			t.Fatal("topic weights differ")
		}
	}
}
