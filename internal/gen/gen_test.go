package gen

import (
	"strings"
	"testing"

	"stopandstare/internal/graph"
)

func TestErdosRenyiSize(t *testing.T) {
	g, err := ErdosRenyi(100, 500, 1, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 || g.NumEdges() != 500 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	g1, _ := ErdosRenyi(50, 200, 7, graph.BuildOptions{})
	g2, _ := ErdosRenyi(50, 200, 7, graph.BuildOptions{})
	for v := 0; v < 50; v++ {
		a1, _ := g1.OutNeighbors(uint32(v))
		a2, _ := g2.OutNeighbors(uint32(v))
		if len(a1) != len(a2) {
			t.Fatal("not deterministic")
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatal("not deterministic")
			}
		}
	}
}

func TestErdosRenyiErrors(t *testing.T) {
	if _, err := ErdosRenyi(1, 10, 1, graph.BuildOptions{}); err == nil {
		t.Fatal("n=1 should fail")
	}
	if _, err := ErdosRenyi(3, 100, 1, graph.BuildOptions{}); err == nil {
		t.Fatal("m > n(n-1) should fail")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := BarabasiAlbert(200, 3, 11, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 200 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	// Roughly 2 arcs per attachment per node.
	if g.NumEdges() < int64(2*3*(200-4)) {
		t.Fatalf("too few edges: %d", g.NumEdges())
	}
	// Undirected semantics: symmetric arcs.
	for u := 0; u < 200; u++ {
		adj, _ := g.OutNeighbors(uint32(u))
		for _, v := range adj {
			if !g.HasEdge(v, uint32(u)) {
				t.Fatalf("asymmetric arc %d->%d", u, v)
			}
		}
	}
	if err := g.CheckLT(); err != nil {
		t.Fatal("WC BA graph must be LT-valid")
	}
}

func TestBarabasiAlbertErrors(t *testing.T) {
	if _, err := BarabasiAlbert(5, 0, 1, graph.BuildOptions{}); err == nil {
		t.Fatal("attach=0 should fail")
	}
	if _, err := BarabasiAlbert(3, 3, 1, graph.BuildOptions{}); err == nil {
		t.Fatal("n<=attach should fail")
	}
}

func TestWattsStrogatz(t *testing.T) {
	g, err := WattsStrogatz(100, 3, 0.1, 13, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	if g.NumEdges() < 500 { // ~600 arcs minus dedup collisions
		t.Fatalf("too few edges: %d", g.NumEdges())
	}
}

func TestWattsStrogatzErrors(t *testing.T) {
	if _, err := WattsStrogatz(10, 5, 0.1, 1, graph.BuildOptions{}); err == nil {
		t.Fatal("2k >= n should fail")
	}
	if _, err := WattsStrogatz(100, 2, 1.5, 1, graph.BuildOptions{}); err == nil {
		t.Fatal("beta > 1 should fail")
	}
}

func TestChungLuDegreeSkew(t *testing.T) {
	g, err := ChungLu(2000, 10000, 2.1, 17, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2000 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	if g.NumEdges() < 9000 {
		t.Fatalf("m=%d want ~10000", g.NumEdges())
	}
	s := g.Stats()
	// Power-law graphs have hubs far above the mean degree.
	if float64(s.MaxOutDegree) < 5*s.AvgOutDegree {
		t.Fatalf("no degree skew: max=%d avg=%.1f", s.MaxOutDegree, s.AvgOutDegree)
	}
}

func TestChungLuErrors(t *testing.T) {
	if _, err := ChungLu(1, 5, 2.1, 1, graph.BuildOptions{}); err == nil {
		t.Fatal("n=1 should fail")
	}
	if _, err := ChungLu(100, 100, 0.9, 1, graph.BuildOptions{}); err == nil {
		t.Fatal("gamma <= 1 should fail")
	}
}

func TestPresetsMirrorTable2(t *testing.T) {
	if len(Presets) != 8 {
		t.Fatalf("Table 2 has 8 datasets, presets has %d", len(Presets))
	}
	want := map[string]int{"nethept": 15233, "twitter": 41700000, "friendster": 65600000}
	for name, nodes := range want {
		p, err := PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Nodes != nodes {
			t.Fatalf("%s nodes=%d want %d", name, p.Nodes, nodes)
		}
	}
	for _, p := range Presets {
		if _, ok := DefaultScales[p.Name]; !ok {
			t.Fatalf("preset %s missing default scale", p.Name)
		}
	}
}

func TestPresetByNameUnknown(t *testing.T) {
	if _, err := PresetByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Fatalf("err = %v", err)
	}
}

func TestPresetGenerateDirected(t *testing.T) {
	p, _ := PresetByName("nethept")
	g, err := p.Generate(0.2, 23, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	wantN, _ := p.ScaledSize(0.2)
	if g.NumNodes() != wantN {
		t.Fatalf("n=%d want %d", g.NumNodes(), wantN)
	}
	if err := g.CheckLT(); err != nil {
		t.Fatal("preset WC graph must be LT-valid")
	}
}

func TestPresetGenerateUndirectedMirrors(t *testing.T) {
	p, _ := PresetByName("orkut")
	g, err := p.Generate(0.0005, 29, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumNodes(); u++ {
		adj, _ := g.OutNeighbors(uint32(u))
		for _, v := range adj {
			if !g.HasEdge(v, uint32(u)) {
				t.Fatalf("orkut stand-in must be symmetric: %d->%d", u, v)
			}
		}
	}
}

func TestPresetScaleValidation(t *testing.T) {
	p, _ := PresetByName("enron")
	if _, err := p.Generate(0, 1, graph.BuildOptions{}); err == nil {
		t.Fatal("scale 0 should fail")
	}
	if _, err := p.Generate(1.5, 1, graph.BuildOptions{}); err == nil {
		t.Fatal("scale > 1 should fail")
	}
}

func TestSortedPresetNames(t *testing.T) {
	names := SortedPresetNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("not sorted")
		}
	}
}

func TestGenerateTopicShapes(t *testing.T) {
	g, err := ChungLu(5000, 25000, 2.1, 31, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	topics, err := GenerateDefaultTopics(g, 37)
	if err != nil {
		t.Fatal(err)
	}
	if len(topics) != 2 {
		t.Fatalf("want 2 topics, got %d", len(topics))
	}
	// Table 4 shape: topic 1 group about twice the size of topic 2.
	r := float64(topics[0].Users) / float64(topics[1].Users)
	if r < 1.2 || r > 3.5 {
		t.Fatalf("topic size ratio %.2f outside Table 4 shape (~2)", r)
	}
	for _, tp := range topics {
		if tp.Users == 0 || tp.Gamma <= 0 {
			t.Fatalf("degenerate topic %+v", tp.Name)
		}
		if len(tp.Weights) != g.NumNodes() {
			t.Fatal("weights length mismatch")
		}
		pos := 0
		for _, w := range tp.Weights {
			if w < 0 {
				t.Fatal("negative weight")
			}
			if w > 0 {
				pos++
			}
		}
		if pos != tp.Users {
			t.Fatalf("Users=%d but %d positive weights", tp.Users, pos)
		}
		if len(tp.Keywords) == 0 {
			t.Fatal("topic without keywords")
		}
	}
}

func TestGenerateTopicErrors(t *testing.T) {
	g, _ := ErdosRenyi(100, 300, 1, graph.BuildOptions{})
	if _, err := GenerateTopic(g, TopicSpec{Name: "x", Fraction: 0, ZipfS: 1.5}, 1); err == nil {
		t.Fatal("fraction 0 should fail")
	}
	if _, err := GenerateTopic(g, TopicSpec{Name: "x", Fraction: 0.5, ZipfS: 1}, 1); err == nil {
		t.Fatal("zipf <= 1 should fail")
	}
}
