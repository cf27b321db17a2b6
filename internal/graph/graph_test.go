package graph

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"stopandstare/internal/rng"
)

// triangle returns the 4-node example graph of the paper's Figure 1 shape:
// a small DAG with explicit weights.
func diamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4)
	b.AddEdge(0, 1, 0.5) // a -> b
	b.AddEdge(0, 2, 0.3) // a -> c
	b.AddEdge(1, 3, 0.4) // b -> d
	b.AddEdge(2, 3, 0.6) // c -> d
	g, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := diamond(t)
	if g.NumNodes() != 4 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("m = %d", g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.InDegree(3) != 2 {
		t.Fatal("degree mismatch")
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || math.Abs(w-0.5) > 1e-6 {
		t.Fatalf("w(0,1) = %v, %v", w, ok)
	}
	if _, ok := g.EdgeWeight(1, 0); ok {
		t.Fatal("reverse edge should not exist")
	}
	if !g.HasEdge(2, 3) || g.HasEdge(3, 2) {
		t.Fatal("HasEdge wrong")
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 0, 0.5)
	b.AddEdge(0, 1, 0.5)
	g, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("self-loop not dropped: m=%d", g.NumEdges())
	}
}

func TestDuplicateEdgesMerged(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 0.3)
	b.AddEdge(0, 1, 0.4)
	b.AddEdge(0, 1, 0.9) // sum clamps at 1
	g, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("m = %d", g.NumEdges())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Fatalf("merged weight %v want 1 (clamped)", w)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := NewBuilder(0).Build(BuildOptions{}); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("want ErrNoNodes, got %v", err)
	}
	b := NewBuilder(2)
	b.AddEdge(0, 5, 0.1)
	if _, err := b.Build(BuildOptions{}); !errors.Is(err, ErrBadEndpoint) {
		t.Fatalf("want ErrBadEndpoint, got %v", err)
	}
	b2 := NewBuilder(2)
	b2.AddEdge(0, 1, 1.5)
	if _, err := b2.Build(BuildOptions{}); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("want ErrBadWeight, got %v", err)
	}
	b3 := NewBuilder(2)
	b3.AddEdge(0, 1, 0.5)
	if _, err := b3.Build(BuildOptions{Model: Uniform, UniformP: 7}); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("want ErrBadWeight for uniform p, got %v", err)
	}
}

func TestWeightedCascade(t *testing.T) {
	// WC: w(u,v) = 1/din(v) — §7.1 of the paper. Incoming sums are exactly 1.
	b := NewBuilder(4)
	b.AddEdge(0, 3, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(0, 1, 1)
	g, err := b.Build(BuildOptions{Model: WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(0, 3); math.Abs(w-1.0/3) > 1e-6 {
		t.Fatalf("WC weight %v want 1/3", w)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Fatalf("WC weight %v want 1", w)
	}
	if math.Abs(g.InWeightSum(3)-1) > 1e-6 {
		t.Fatalf("in-sum %v want 1", g.InWeightSum(3))
	}
	if err := g.CheckLT(); err != nil {
		t.Fatalf("WC graph must satisfy LT: %v", err)
	}
}

func TestUniformModel(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g, err := b.Build(BuildOptions{Model: Uniform, UniformP: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 0.25 {
		t.Fatalf("uniform weight %v", w)
	}
}

func TestTrivalencyModel(t *testing.T) {
	b := NewBuilder(10)
	for u := uint32(0); u < 9; u++ {
		b.AddEdge(u, u+1, 1)
	}
	g, err := b.Build(BuildOptions{Model: Trivalency, TrivalencySeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	valid := map[float32]bool{0.1: true, 0.01: true, 0.001: true}
	for u := 0; u < 9; u++ {
		_, ws := g.OutNeighbors(uint32(u))
		for _, w := range ws {
			if !valid[w] {
				t.Fatalf("trivalency weight %v", w)
			}
		}
	}
	// Deterministic in the seed.
	g2, _ := NewBuilderCopy(b).Build(BuildOptions{Model: Trivalency, TrivalencySeed: 99})
	for u := 0; u < 9; u++ {
		_, w1 := g.OutNeighbors(uint32(u))
		_, w2 := g2.OutNeighbors(uint32(u))
		for i := range w1 {
			if w1[i] != w2[i] {
				t.Fatal("trivalency not deterministic")
			}
		}
	}
}

func TestCheckLTViolation(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 2, 0.7)
	b.AddEdge(1, 2, 0.7)
	g, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLT(); !errors.Is(err, ErrLTViolation) {
		t.Fatalf("want ErrLTViolation, got %v", err)
	}
}

func TestStats(t *testing.T) {
	g := diamond(t)
	s, err := g.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 4 || s.Edges != 4 {
		t.Fatalf("stats %+v", s)
	}
	if s.MaxOutDegree != 2 || s.MaxInDegree != 2 {
		t.Fatalf("degrees %+v", s)
	}
	if !s.LTValid {
		t.Fatal("diamond is LT-valid")
	}
	if s.AvgOutDegree != 1 {
		t.Fatalf("avg %v", s.AvgOutDegree)
	}
}

// NewBuilderCopy clones a builder for reuse in tests.
func NewBuilderCopy(b *Builder) *Builder {
	nb := NewBuilder(b.n)
	nb.edges = append(nb.edges, b.edges...)
	return nb
}

func TestCSRInvariantsProperty(t *testing.T) {
	// For random edge lists, the dual CSR must be self-consistent:
	// (u,v) appears in u's out-list iff it appears in v's in-list, with the
	// same weight; adjacency segments sorted; InWeightSum is Σ of inW.
	f := func(seed uint64, edgeBytes []byte) bool {
		n := 12
		b := NewBuilder(n)
		r := rng.New(seed)
		for range edgeBytes {
			u := uint32(r.Intn(n))
			v := uint32(r.Intn(n))
			b.AddEdge(u, v, r.Float64())
		}
		g, err := b.Build(BuildOptions{})
		if err != nil {
			return false
		}
		var outPairs, inPairs []uint64
		for u := 0; u < n; u++ {
			adj, ws := g.OutNeighbors(uint32(u))
			for i, v := range adj {
				if i > 0 && adj[i-1] >= v {
					return false // not strictly sorted ⇒ dup or disorder
				}
				_ = ws[i]
				outPairs = append(outPairs, uint64(u)<<32|uint64(v))
			}
		}
		for v := 0; v < n; v++ {
			adj, _ := g.InNeighbors(uint32(v))
			for i, u := range adj {
				if i > 0 && adj[i-1] >= u {
					return false
				}
				inPairs = append(inPairs, uint64(u)<<32|uint64(v))
			}
			_, ws := g.InNeighbors(uint32(v))
			sum := 0.0
			for _, w := range ws {
				sum += float64(w)
			}
			if math.Abs(sum-g.InWeightSum(uint32(v))) > 1e-6 {
				return false
			}
		}
		if len(outPairs) != len(inPairs) {
			return false
		}
		seen := map[uint64]bool{}
		for _, p := range outPairs {
			seen[p] = true
		}
		for _, p := range inPairs {
			if !seen[p] {
				return false
			}
		}
		// weights agree across orientations
		for u := 0; u < n; u++ {
			adj, ws := g.OutNeighbors(uint32(u))
			for i, v := range adj {
				wIn := float32(-1)
				inAdj, inWs := g.InNeighbors(v)
				for j, uu := range inAdj {
					if uu == uint32(u) {
						wIn = inWs[j]
					}
				}
				if wIn != ws[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadEdgeList(t *testing.T) {
	in := `# comment line
0 1 0.5
1 2       % trailing comment style
2 0 0.25
`
	g, err := LoadEdgeList(strings.NewReader(in), LoadOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if w, _ := g.EdgeWeight(1, 2); w != 1 { // default weight
		t.Fatalf("default weight %v", w)
	}
	if w, _ := g.EdgeWeight(2, 0); w != 0.25 {
		t.Fatalf("explicit weight %v", w)
	}
}

func TestLoadEdgeListUndirected(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("0 1 0.5\n"), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected load should create both arcs")
	}
}

func TestLoadEdgeListRelabel(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("1000 2000\n2000 3000\n"),
		LoadOptions{Directed: true, Relabel: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("relabel failed: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",
		"a b\n",
		"0 b\n",
		"0 1 xyz\n",
	}
	for _, in := range cases {
		if _, err := LoadEdgeList(strings.NewReader(in), LoadOptions{Directed: true}); !errors.Is(err, ErrParse) {
			t.Fatalf("input %q: want ErrParse, got %v", in, err)
		}
	}
	if _, err := LoadEdgeList(strings.NewReader(""), LoadOptions{}); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("empty input: %v", err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := g.SaveEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(&buf, LoadOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed size")
	}
	if w, _ := g2.EdgeWeight(0, 2); math.Abs(w-0.3) > 1e-6 {
		t.Fatalf("round trip weight %v", w)
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1, 0.5}, {1, 2, 0.5}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d", g.NumEdges())
	}
}

func TestGraphString(t *testing.T) {
	if s := diamond(t).String(); !strings.Contains(s, "n=4") {
		t.Fatalf("String() = %q", s)
	}
}

func TestBytesPositive(t *testing.T) {
	if diamond(t).Bytes() <= 0 {
		t.Fatal("Bytes() should be positive")
	}
}

func TestReverseTwiceIsIdentity(t *testing.T) {
	r := rng.New(7)
	b := NewBuilder(20)
	for i := 0; i < 80; i++ {
		b.AddEdge(uint32(r.Intn(20)), uint32(r.Intn(20)), r.Float64())
	}
	g, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := g.Reverse()
	if err != nil {
		t.Fatal(err)
	}
	if rev.NumEdges() != g.NumEdges() {
		t.Fatal("reverse changed edge count")
	}
	// every edge flipped
	for u := 0; u < 20; u++ {
		adj, ws := g.OutNeighbors(uint32(u))
		for i, v := range adj {
			w, ok := rev.EdgeWeight(v, uint32(u))
			if !ok || float32(w) != ws[i] {
				t.Fatalf("edge (%d,%d) not reversed correctly", u, v)
			}
		}
	}
	back, err := rev.Reverse()
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		a1, w1 := g.OutNeighbors(uint32(u))
		a2, w2 := back.OutNeighbors(uint32(u))
		if len(a1) != len(a2) {
			t.Fatal("double reverse changed degrees")
		}
		for i := range a1 {
			if a1[i] != a2[i] || w1[i] != w2[i] {
				t.Fatal("double reverse not identity")
			}
		}
	}
}
