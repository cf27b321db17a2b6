package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"stopandstare/internal/rng"
)

// refBuild is the comparison-sort Build the counting sort replaced, kept as
// the differential oracle: a stable sort by (u,v), so duplicates merge in
// AddEdge order, then the same degree count, weight model and fill-in.
func refBuild(n int, arcs []Edge, opt BuildOptions) (*Graph, error) {
	if n <= 0 {
		return nil, ErrNoNodes
	}
	edges := make([]packedEdge, 0, len(arcs))
	for _, a := range arcs {
		e := packedEdge{key: uint64(a.U)<<32 | uint64(a.V), w: float32(a.W)}
		if int(a.U) >= n || int(a.V) >= n {
			return nil, fmt.Errorf("%w: (%d,%d) with n=%d", ErrBadEndpoint, a.U, a.V, n)
		}
		if a.U == a.V {
			continue
		}
		if opt.Model == WeightsAsGiven {
			if w := float64(e.w); w < 0 || w > 1 || math.IsNaN(w) {
				return nil, fmt.Errorf("%w: w(%d,%d)=%v", ErrBadWeight, a.U, a.V, e.w)
			}
		}
		edges = append(edges, e)
	}
	slices.SortStableFunc(edges, func(a, b packedEdge) int { return cmp.Compare(a.key, b.key) })
	dedup := edges[:0]
	for i := 0; i < len(edges); {
		j := i + 1
		w := float64(edges[i].w)
		for j < len(edges) && edges[j].key == edges[i].key {
			w += float64(edges[j].w)
			j++
		}
		if w > 1 {
			w = 1
		}
		dedup = append(dedup, packedEdge{key: edges[i].key, w: float32(w)})
		i = j
	}
	edges = dedup
	m := len(edges)
	g := newHeapGraph(n, sections{
		outIdx: make([]int64, n+1),
		outAdj: make([]uint32, m),
		outW:   make([]float32, m),
		inIdx:  make([]int64, n+1),
		inAdj:  make([]uint32, m),
		inW:    make([]float32, m),
		inCum:  make([]float64, m),
		inSum:  make([]float64, n),
	})
	for _, e := range edges {
		g.outIdx[uint32(e.key>>32)+1]++
		g.inIdx[uint32(e.key)+1]++
	}
	for v := 0; v < n; v++ {
		g.outIdx[v+1] += g.outIdx[v]
		g.inIdx[v+1] += g.inIdx[v]
	}
	if opt.Model == Uniform && (opt.UniformP < 0 || opt.UniformP > 1) {
		return nil, fmt.Errorf("%w: uniform p=%v", ErrBadWeight, opt.UniformP)
	}
	outCur := make([]int64, n)
	inCur := make([]int64, n)
	copy(outCur, g.outIdx[:n])
	copy(inCur, g.inIdx[:n])
	for _, e := range edges {
		u, v := uint32(e.key>>32), uint32(e.key)
		var w float64
		switch opt.Model {
		case WeightedCascade:
			w = 1 / float64(g.inIdx[v+1]-g.inIdx[v])
		case Uniform:
			w = opt.UniformP
		case Trivalency:
			w = trivalencyWeight(e.key, opt.TrivalencySeed)
		default:
			w = float64(e.w)
		}
		g.outAdj[outCur[u]] = v
		g.outW[outCur[u]] = float32(w)
		outCur[u]++
		g.inAdj[inCur[v]] = u
		g.inW[inCur[v]] = float32(w)
		inCur[v]++
	}
	for v := 0; v < n; v++ {
		sum := 0.0
		for i := g.inIdx[v]; i < g.inIdx[v+1]; i++ {
			sum += float64(g.inW[i])
			g.inCum[i] = sum
		}
		g.inSum[v] = sum
	}
	return g, nil
}

// allModels are the four weight models, Uniform and Trivalency with fixed
// parameters.
var allModels = []BuildOptions{
	{Model: WeightsAsGiven},
	{Model: WeightedCascade},
	{Model: Uniform, UniformP: 0.3},
	{Model: Trivalency, TrivalencySeed: 11},
}

// requireBuildMatchesReference builds arcs through a Builder and through
// refBuild and requires the same error class or the same sections. It then
// builds the same builder a second time: Build permutes the builder's arcs
// but must keep the graph they describe.
func requireBuildMatchesReference(t *testing.T, n int, arcs []Edge, opt BuildOptions) {
	t.Helper()
	want, werr := refBuild(n, arcs, opt)
	b := NewBuilder(n)
	for _, a := range arcs {
		b.AddEdge(a.U, a.V, a.W)
	}
	got, gerr := b.Build(opt)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("errors differ: reference %v, Build %v", werr, gerr)
	}
	if werr != nil {
		for _, class := range []error{ErrNoNodes, ErrBadEndpoint, ErrBadWeight} {
			if errors.Is(werr, class) != errors.Is(gerr, class) {
				t.Fatalf("error classes differ: reference %v, Build %v", werr, gerr)
			}
		}
		return
	}
	requireSectionsEqual(t, want, got)
	if b.NumRawEdges() != len(arcs) {
		t.Fatalf("builder holds %d arcs after Build, want %d", b.NumRawEdges(), len(arcs))
	}
	again, err := b.Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSectionsEqual(t, want, again)
}

// randomArcs draws m arcs over n nodes from r: mostly uniform, with
// self-loops and arcs repeated three or more times at distinct weights, and
// with the top ids left isolated. A repeat's weights are powers of two far
// apart, whose float64 sum can depend on the order it is taken in.
func randomArcs(r *rng.Source, n, m int) []Edge {
	span := max(1, n-n/4)
	arcs := make([]Edge, 0, m)
	for len(arcs) < m {
		u, v := r.Uint32n(uint32(span)), r.Uint32n(uint32(span))
		switch p := r.Float64(); {
		case p < 0.1:
			v = u
		case p < 0.25:
			for c := 3 + r.Intn(3); c > 0; c-- {
				arcs = append(arcs, Edge{U: u, V: v, W: math.Ldexp(1, -1-r.Intn(60))})
			}
			continue
		}
		arcs = append(arcs, Edge{U: u, V: v, W: r.Float64() / 3})
	}
	r.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	return arcs
}

func TestBuildMatchesReference(t *testing.T) {
	r := rng.New(29)
	for _, size := range []struct{ n, m int }{{1, 0}, {1, 5}, {2, 7}, {5, 40}, {40, 400}, {300, 5000}, {2000, 30000}} {
		for _, opt := range allModels {
			for trial := 0; trial < 4; trial++ {
				t.Run(fmt.Sprintf("n%d/m%d/model%d/%d", size.n, size.m, opt.Model, trial), func(t *testing.T) {
					requireBuildMatchesReference(t, size.n, randomArcs(r, size.n, size.m), opt)
				})
			}
		}
	}
}

// TestBuildReuseKeepsAddEdgeOrder adds arcs after a Build: the second graph
// must merge every copy of an arc in AddEdge order across both batches.
func TestBuildReuseKeepsAddEdgeOrder(t *testing.T) {
	r := rng.New(31)
	first, second := randomArcs(r, 50, 600), randomArcs(r, 50, 600)
	b := NewBuilder(50)
	for _, a := range first {
		b.AddEdge(a.U, a.V, a.W)
	}
	if _, err := b.Build(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, a := range second {
		b.AddEdge(a.U, a.V, a.W)
	}
	got, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := refBuild(50, append(first, second...), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSectionsEqual(t, want, got)
}

// TestBuildMergesInAddEdgeOrder sums four copies of one arc whose float64
// total depends on the order it is taken in: added small weights first, the
// merged weight rounds up to the next float32.
func TestBuildMergesInAddEdgeOrder(t *testing.T) {
	tiny, mid := math.Ldexp(1, -54), math.Ldexp(1, -25)
	for _, c := range []struct {
		ws   []float64
		want float32
	}{
		{[]float64{tiny, tiny, 0.5, mid}, float32(0.5 + 2*mid)},
		{[]float64{0.5, tiny, tiny, mid}, 0.5},
	} {
		b := NewBuilder(2)
		for _, w := range c.ws {
			b.AddEdge(0, 1, w)
		}
		g, err := b.Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ws := g.OutNeighbors(0); ws[0] != c.want {
			t.Fatalf("weights %v merged to %v, want %v", c.ws, ws[0], c.want)
		}
	}
}

func TestBuildErrorsMatchReference(t *testing.T) {
	cases := []struct {
		name string
		n    int
		arcs []Edge
		opt  BuildOptions
	}{
		{"no-nodes", 0, nil, BuildOptions{}},
		{"bad-endpoint", 3, []Edge{{0, 1, 0.5}, {1, 3, 0.5}}, BuildOptions{}},
		{"bad-self-loop-endpoint", 3, []Edge{{3, 3, 0.5}}, BuildOptions{Model: WeightedCascade}},
		{"bad-weight", 3, []Edge{{0, 1, 0.5}, {1, 2, 1.5}}, BuildOptions{}},
		{"nan-weight", 3, []Edge{{0, 1, math.NaN()}}, BuildOptions{}},
		{"bad-weight-on-self-loop", 3, []Edge{{1, 1, -0.5}}, BuildOptions{}},
		{"bad-uniform-p", 3, []Edge{{0, 1, 0.5}}, BuildOptions{Model: Uniform, UniformP: 2}},
		{"endpoint-before-uniform-p", 3, []Edge{{0, 5, 0.5}}, BuildOptions{Model: Uniform, UniformP: 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			requireBuildMatchesReference(t, c.n, c.arcs, c.opt)
		})
	}
}

// FuzzBuildMatchesReference decodes bytes into a node count, a weight model
// and an arc list (three bytes an arc: source, destination, weight; an id
// byte of 255 is out of range and a weight byte of 127 is above 1, so the
// error paths run too; weight bytes from 128 up are powers of two, so merge
// order shows) and
// requires Build to agree with refBuild. The seed corpus
// (testdata/fuzz/FuzzBuildMatchesReference) holds n = 1, triple arcs at
// distinct weights, self-loops and each model.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0]%32)
		opt := allModels[data[1]%4]
		var arcs []Edge
		for p := data[2:]; len(p) >= 3; p = p[3:] {
			arcs = append(arcs, Edge{U: fuzzID(p[0], n), V: fuzzID(p[1], n), W: fuzzWeight(p[2])})
		}
		requireBuildMatchesReference(t, n, arcs, opt)
	})
}

// fuzzID maps a byte to a node id below n, or to n itself for 255.
func fuzzID(b byte, n int) uint32 {
	if b == 255 {
		return uint32(n)
	}
	return uint32(b) % uint32(n)
}

// fuzzWeight maps a byte below 128 to b/126 and one above to 2^(127-b).
func fuzzWeight(b byte) float64 {
	if b < 128 {
		return float64(b) / 126
	}
	return math.Ldexp(1, 127-int(b))
}

// benchArcs returns m random arcs over n nodes, about 4% of them repeats of
// an earlier arc and 1% self-loops, the mix an edge-list import sees.
func benchArcs(n, m int, seed uint64) []Edge {
	r := rng.New(seed)
	arcs := make([]Edge, m)
	for i := range arcs {
		switch p := r.Float64(); {
		case p < 0.04 && i > 0:
			arcs[i] = arcs[r.Intn(i)]
			arcs[i].W = r.Float64() / 2
		case p < 0.05:
			u := r.Uint32n(uint32(n))
			arcs[i] = Edge{U: u, V: u, W: r.Float64() / 2}
		default:
			arcs[i] = Edge{U: r.Uint32n(uint32(n)), V: r.Uint32n(uint32(n)), W: r.Float64() / 2}
		}
	}
	return arcs
}

// BenchmarkBuild times Build alone over 4 M arcs in AddEdge order; filling
// the builder is outside the timer.
func BenchmarkBuild(b *testing.B) {
	const n, m = 1 << 18, 4 << 20
	arcs := benchArcs(n, m, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bld := NewBuilder(n)
		for _, e := range arcs {
			bld.AddEdge(e.U, e.V, e.W)
		}
		b.StartTimer()
		if _, err := bld.Build(BuildOptions{Model: WeightedCascade}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/m, "ns/arc")
}
