package ris

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// This file is the statistical-equivalence harness of the compiled sampling
// plan: the plan consumes different PRNG sequences than the direct Bernoulli
// translation of Def. 2 (refSampler, reference_test.go), so set-by-set
// comparison is meaningless — instead the harness proves the two draw from
// the same DISTRIBUTION:
//
//   - per-edge activation frequencies (chi-square against the exact edge
//     probabilities, for the geometric, threshold and alias paths);
//   - mean RR-set size and width agreement between plan and reference on a
//     weighted-cascade graph under both models;
//   - influence estimates of both against the exact possible-world oracle
//     (internal/diffusion.Exact).
//
// Structural invariants (root membership, reverse-path validity, width
// definition, worker-count determinism) are covered by ris_test.go.

// rrSampler is the sampling surface the harness compares: the production
// *Sampler and the refSampler definition.
type rrSampler interface {
	NewState() *State
	AppendSample(r *rng.Source, st *State, buf []uint32) ([]uint32, int)
}

// namedSampler labels one side of a comparison in failure messages.
type namedSampler struct {
	name string
	rrSampler
}

// planAndRef returns the compiled plan and the reference definition over the
// same sampler configuration (graph, model, root distribution).
func planAndRef(s *Sampler) []namedSampler {
	return []namedSampler{{"plan", s}, {"ref", refSampler{s}}}
}

// forcedRootSampler returns a WRIS sampler whose root is always node 0, so
// per-edge frequencies at node 0 can be measured directly.
func forcedRootSampler(t *testing.T, g *graph.Graph, model diffusion.Model) *Sampler {
	t.Helper()
	w := make([]float64, g.NumNodes())
	w[0] = 1
	s, err := NewWeightedSampler(g, model, w)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// starGraph builds edges i→0 for i = 1..len(ws) with the given weights, so
// node 0's in-edge list has exactly those activation probabilities.
func starGraph(t *testing.T, ws []float64) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, len(ws))
	for i, w := range ws {
		edges[i] = graph.Edge{U: uint32(i + 1), V: 0, W: w}
	}
	g, err := graph.FromEdges(len(ws)+1, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlanClassification(t *testing.T) {
	// Weighted cascade: every in-edge of v weighs 1/d_in(v) — every node
	// must classify uniform and the plan must carry no threshold records.
	g, err := gen.ChungLu(300, 2000, 2.1, 5, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range p.class {
		if c != classUniform {
			t.Fatalf("WC node %d classified general", v)
		}
	}
	if len(p.gen) != 0 || p.genOff != nil {
		t.Fatal("WC plan allocated threshold records")
	}
	// Mixed weights: node 0 of the star must classify general, its
	// neighbours (in-degree 0) uniform.
	gm := starGraph(t, []float64{0.1, 0.5, 0.9})
	pm, err := NewPlan(gm, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	if pm.class[0] != classGeneral {
		t.Fatal("mixed-weight node classified uniform")
	}
	if got := pm.genOff[1] - pm.genOff[0]; got != 3 {
		t.Fatalf("general node has %d records, want 3", got)
	}
	for _, e := range pm.gen {
		if e.thr == 0 {
			t.Fatal("zero threshold for a positive-probability edge")
		}
	}
}

// TestLTSharedTables checks that sharing LT alias tables among nodes with
// equal in-weights changes no table: every node's table in the compiled
// plan equals its own per-node Vose build (refLTTable), slot for slot. It
// also checks the layout: all nodes whose in-edges carry one weight, bit
// for bit, and have one in-degree point at one table; the tables tile the
// slot array with nothing built twice; and Plan.Bytes counts each once.
func TestLTSharedTables(t *testing.T) {
	// The 64-bit threshold is split in two 32-bit halves so the slot packs
	// into 12 bytes; a field that re-pads it fails here.
	if sz := unsafe.Sizeof(ltSlot{}); sz != 12 {
		t.Fatalf("ltSlot is %d bytes, want 12", sz)
	}
	graphs := map[string]*graph.Graph{}
	wc := map[string]bool{} // weighted cascade: one table per in-degree
	for _, name := range []string{"nethept", "enron"} {
		pre, err := gen.PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if graphs[name], err = pre.Generate(1, 1, graph.BuildOptions{Model: graph.WeightedCascade}); err != nil {
			t.Fatal(err)
		}
		wc[name] = true
	}
	for seed := uint64(1); seed <= 40; seed++ {
		graphs[fmt.Sprintf("fuzz/%d", seed)] = fuzzKernelGraph(t, seed, uint8(7*seed), diffusion.LT)
	}
	// Shared tables for in-degrees 2 (weighted cascade) and 3 (one weight
	// below 1/3) and for in-degree 0, two mixed-weight nodes, and a node
	// with in-degree 2 and a weight of its own.
	var edges []graph.Edge
	for v, ws := range map[uint32][]float64{
		1: {0.5, 0.5}, 2: {0.5, 0.5}, 3: {0.5, 0.5}, 4: {0.2, 0.2, 0.2}, 5: {0.2, 0.2, 0.2},
		6: {0.1, 0.3, 0.5}, 7: {0.25, 0.5}, 8: {0.2, 0.2}, 10: {0.2, 0.2, 0.2},
	} {
		for i, w := range ws {
			edges = append(edges, graph.Edge{U: (v + uint32(i) + 1) % 12, V: v, W: w})
		}
	}
	mixed, err := graph.FromEdges(12, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graphs["mixed"] = mixed
	wantTables := map[string]int{"mixed": 6} // (2, 0.5), (3, 0.2), (2, 0.2), (0), nodes 6 and 7

	for name, g := range graphs {
		p, err := NewPlan(g, diffusion.LT)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := g.NumNodes()
		size := map[int64]int64{} // table offset → slots
		byKey := map[[2]uint64]int64{}
		degrees := map[int]bool{}
		for v := 0; v < n; v++ {
			d := g.InDegree(uint32(v))
			degrees[d] = true
			off := p.ltOff[v]
			tab := p.lt[off : off+int64(d)+1]
			if want := refLTTable(g, uint32(v)); !slices.Equal(tab, want) {
				t.Fatalf("%s: node %d table %v, per-node build %v", name, v, tab, want)
			}
			if m, ok := size[off]; ok && m != int64(d)+1 {
				t.Fatalf("%s: table at %d read with %d and %d slots", name, off, m, d+1)
			}
			size[off] = int64(d) + 1
			_, ws := g.InNeighbors(uint32(v))
			if d > 0 && slices.ContainsFunc(ws, func(w float32) bool { return math.Float32bits(w) != math.Float32bits(ws[0]) }) {
				continue
			}
			key := [2]uint64{uint64(d), 0}
			if d > 0 {
				key[1] = uint64(math.Float32bits(ws[0]))
			}
			if o, ok := byKey[key]; ok && o != off {
				t.Fatalf("%s: node %d has table %d, an equal node table %d", name, v, off, o)
			}
			byKey[key] = off
		}
		offs := make([]int64, 0, len(size))
		for off := range size {
			offs = append(offs, off)
		}
		slices.Sort(offs)
		var end int64
		for _, off := range offs {
			if off != end {
				t.Fatalf("%s: table at %d, previous table ends at %d", name, off, end)
			}
			end += size[off]
		}
		if end != int64(len(p.lt)) {
			t.Fatalf("%s: tables end at %d of %d slots", name, end, len(p.lt))
		}
		if want := int64(n)*8 + int64(len(p.lt))*12; p.Bytes() != want {
			t.Fatalf("%s: Bytes %d, want %d", name, p.Bytes(), want)
		}
		if want, ok := wantTables[name]; ok && len(offs) != want {
			t.Fatalf("%s: %d tables, want %d", name, len(offs), want)
		}
		if wc[name] && len(offs) != len(degrees) {
			t.Fatalf("%s: %d tables for %d in-degrees", name, len(offs), len(degrees))
		}
	}
}

// activationCounts generates N RR sets from the forced root and counts how
// often each star leaf appears (leaves have no in-edges, so membership is
// exactly "the edge fired" under IC and "the walk stepped there" under LT).
func activationCounts(s *Sampler, n, N int) []int {
	st := s.NewState()
	var r rng.Source
	counts := make([]int, n)
	for i := 0; i < N; i++ {
		r.SeedStream(4242, uint64(i))
		buf, setLen := s.AppendSample(&r, st, nil)
		for _, v := range buf[len(buf)-setLen:] {
			counts[v]++
		}
	}
	return counts
}

// chiSquareEdges returns Σ (c_i − N·p_i)² / (N·p_i·(1−p_i)) — each edge is
// an independent Bernoulli, so the statistic is ~χ² with len(ws) degrees of
// freedom.
func chiSquareEdges(counts []int, ws []float64, N int) float64 {
	var x2 float64
	for i, p := range ws {
		d := float64(counts[i+1]) - float64(N)*p
		x2 += d * d / (float64(N) * p * (1 - p))
	}
	return x2
}

func TestPlanICUniformEdgeFrequencies(t *testing.T) {
	// All weights equal ⇒ node 0 is uniform class ⇒ the geometric-skipping
	// kernel serves it. 16 edges at p = 0.15.
	const d, p, N = 16, 0.15, 300000
	ws := make([]float64, d)
	for i := range ws {
		ws[i] = p
	}
	g := starGraph(t, ws)
	s := forcedRootSampler(t, g, diffusion.IC)
	if s.mustPlan().class[0] != classUniform {
		t.Fatal("uniform star classified general")
	}
	counts := activationCounts(s, g.NumNodes(), N)
	// χ²(16): 1-1e-6 quantile ≈ 56.
	if x2 := chiSquareEdges(counts, ws, N); x2 > 70 {
		t.Fatalf("geometric kernel chi-square %.1f (counts %v)", x2, counts[1:])
	}
}

func TestPlanICGeneralEdgeFrequencies(t *testing.T) {
	// Distinct weights ⇒ general class ⇒ the fused threshold kernel.
	ws := []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.97}
	const N = 300000
	g := starGraph(t, ws)
	s := forcedRootSampler(t, g, diffusion.IC)
	if s.mustPlan().class[0] != classGeneral {
		t.Fatal("mixed star classified uniform")
	}
	counts := activationCounts(s, g.NumNodes(), N)
	// χ²(8): 1-1e-6 quantile ≈ 43.
	if x2 := chiSquareEdges(counts, ws, N); x2 > 55 {
		t.Fatalf("threshold kernel chi-square %.1f (counts %v)", x2, counts[1:])
	}
}

func TestPlanLTStepFrequencies(t *testing.T) {
	// LT star with Σw = 0.85: the alias walk's first step must pick leaf i
	// with probability w_i and stop (singleton set) with probability 0.15.
	ws := []float64{0.05, 0.1, 0.15, 0.2, 0.35}
	const N = 300000
	g := starGraph(t, ws)
	s := forcedRootSampler(t, g, diffusion.LT)
	counts := activationCounts(s, g.NumNodes(), N)
	// Multinomial chi-square over the d+1 outcomes (leaves + stop).
	stopped := N
	var x2 float64
	for i, p := range ws {
		stopped -= counts[i+1]
		d := float64(counts[i+1]) - float64(N)*p
		x2 += d * d / (float64(N) * p)
	}
	pStop := 0.15
	dd := float64(stopped) - float64(N)*pStop
	x2 += dd * dd / (float64(N) * pStop)
	// χ²(5): 1-1e-6 quantile ≈ 35.
	if x2 > 45 {
		t.Fatalf("alias kernel chi-square %.1f (counts %v, stopped %d)", x2, counts[1:], stopped)
	}
}

// TestRefLTStepDistribution checks the reference sampler's LT step itself:
// in-neighbour i is taken with probability w_i and the walk stops with
// probability 1 − Σw.
func TestRefLTStepDistribution(t *testing.T) {
	ws := []float64{0.2, 0.3, 0.1} // Σw = 0.6: the walk stops w.p. 0.4
	g := starGraph(t, ws)
	r := rng.New(7)
	const draws = 300000
	counts := make([]int, g.NumNodes())
	stops := 0
	for i := 0; i < draws; i++ {
		u, ok := refLTStep(g, 0, r.Float64())
		if !ok {
			stops++
			continue
		}
		counts[u]++
	}
	check := func(got int, p float64, label string) {
		want := p * draws
		if math.Abs(float64(got)-want) > 6*math.Sqrt(want) {
			t.Fatalf("%s: got %d want ~%.0f", label, got, want)
		}
	}
	for i, p := range ws {
		check(counts[i+1], p, fmt.Sprintf("in-neighbour %d", i+1))
	}
	check(stops, 0.4, "stop")
}

// TestRefLTStepNoInNeighbors checks that the reference sampler's LT step
// always stops at a node with no in-edges.
func TestRefLTStepNoInNeighbors(t *testing.T) {
	g := starGraph(t, []float64{0.2, 0.3, 0.1})
	for _, u01 := range []float64{0, 0.5, math.Nextafter(1, 0)} {
		if _, ok := refLTStep(g, 1, u01); ok {
			t.Fatalf("u01 = %v: a node with no in-edges must always stop", u01)
		}
	}
}

// sampleMoments generates N sets and returns the mean and variance of the
// set sizes plus the mean width w(R) = Σ_{v∈R} d_in(v) on g.
func sampleMoments(s rrSampler, g *graph.Graph, seed uint64, N int) (meanSize, varSize, meanWidth float64) {
	st := s.NewState()
	var r rng.Source
	var buf []uint32
	var sum, sumSq, wsum float64
	for i := 0; i < N; i++ {
		r.SeedStream(seed, uint64(i))
		var setLen int
		buf, setLen = s.AppendSample(&r, st, buf[:0])
		sz := float64(setLen)
		sum += sz
		sumSq += sz * sz
		for _, v := range buf {
			wsum += float64(g.InDegree(v))
		}
	}
	meanSize = sum / float64(N)
	varSize = sumSq/float64(N) - meanSize*meanSize
	meanWidth = wsum / float64(N)
	return
}

func TestPlanVsOracleSizeWidthAgreement(t *testing.T) {
	g, err := gen.ChungLu(2000, 16000, 2.1, 17, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	const N = 60000
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s, err := NewSampler(g, model)
		if err != nil {
			t.Fatal(err)
		}
		pm, pv, pw := sampleMoments(s, g, 1009, N)
		om, ov, ow := sampleMoments(refSampler{s}, g, 2017, N)
		// Two-sample z-test on the means; the shared variance estimate is
		// conservative enough at N = 60k per sampler.
		se := math.Sqrt((pv + ov) / N)
		if d := math.Abs(pm - om); d > 6*se+1e-9 {
			t.Fatalf("%v: mean size plan %.4f vs reference %.4f (6se=%.4f)", model, pm, om, 6*se)
		}
		// Width is a size-correlated heavy-tail; a relative tolerance keeps
		// the check meaningful without modelling its variance.
		if d := math.Abs(pw - ow); d > 0.05*math.Max(pw, ow)+1 {
			t.Fatalf("%v: mean width plan %.2f vs reference %.2f", model, pw, ow)
		}
	}
}

// exactCheck estimates I(S) from N RR sets of the plan and of the reference
// and compares each against the exact possible-world influence.
func exactCheck(t *testing.T, g *graph.Graph, model diffusion.Model, seeds []uint32) {
	t.Helper()
	exact, err := diffusion.Exact(g, model, seeds)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(g, model)
	if err != nil {
		t.Fatal(err)
	}
	mark := make([]bool, g.NumNodes())
	for _, v := range seeds {
		mark[v] = true
	}
	const N = 400000
	for _, smp := range planAndRef(s) {
		st := smp.NewState()
		var r rng.Source
		var buf []uint32
		var cov int64
		for i := 0; i < N; i++ {
			r.SeedStream(97, uint64(i))
			buf, _ = smp.AppendSample(&r, st, buf[:0])
			for _, v := range buf {
				if mark[v] {
					cov++
					break
				}
			}
		}
		est := s.Scale() * float64(cov) / float64(N)
		p := float64(cov) / float64(N)
		se := s.Scale() * math.Sqrt(p*(1-p)/float64(N))
		if math.Abs(est-exact) > 5*se+0.01 {
			t.Fatalf("%v/%s: estimate %.4f vs exact %.4f (se %.4f)", model, smp.name, est, exact, se)
		}
	}
}

func TestPlanInfluenceMatchesExactOracle(t *testing.T) {
	gIC := mustGraph(t, 5, []graph.Edge{
		{U: 0, V: 1, W: 0.6}, {U: 0, V: 2, W: 0.3}, {U: 1, V: 3, W: 0.5},
		{U: 2, V: 3, W: 0.7}, {U: 3, V: 4, W: 0.4},
	})
	gLT := mustGraph(t, 5, []graph.Edge{
		{U: 0, V: 1, W: 0.5}, {U: 2, V: 1, W: 0.3}, {U: 1, V: 3, W: 0.6},
		{U: 0, V: 3, W: 0.2}, {U: 3, V: 4, W: 0.8},
	})
	exactCheck(t, gIC, diffusion.IC, []uint32{0})
	exactCheck(t, gIC, diffusion.IC, []uint32{1, 2})
	exactCheck(t, gLT, diffusion.LT, []uint32{0})
	exactCheck(t, gLT, diffusion.LT, []uint32{0, 2})
}

func TestPlanCertainEdges(t *testing.T) {
	// Weight-1 edges (d_in = 1 under weighted cascade) must ALWAYS fire,
	// under the plan and the reference: the chain 3→2→1→0 with w=1 makes
	// every RR set from root 0 the full chain.
	g := mustGraph(t, 4, []graph.Edge{
		{U: 3, V: 2, W: 1}, {U: 2, V: 1, W: 1}, {U: 1, V: 0, W: 1},
	})
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		for _, s := range planAndRef(forcedRootSampler(t, g, model)) {
			st := s.NewState()
			var r rng.Source
			for i := 0; i < 2000; i++ {
				r.SeedStream(7, uint64(i))
				buf, setLen := s.AppendSample(&r, st, nil)
				if setLen != 4 {
					t.Fatalf("%v/%s: certain chain gave set %v", model, s.name, buf)
				}
			}
		}
	}
}

func TestPlanZeroWeightEdges(t *testing.T) {
	// Weight-0 edges must NEVER fire, under the plan or the reference
	// (uniform class with p = 0 exercises the Geometric MaxSkip sentinel).
	g := mustGraph(t, 3, []graph.Edge{{U: 1, V: 0, W: 0}, {U: 2, V: 0, W: 0}})
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		for _, s := range planAndRef(forcedRootSampler(t, g, model)) {
			st := s.NewState()
			var r rng.Source
			for i := 0; i < 2000; i++ {
				r.SeedStream(11, uint64(i))
				_, setLen := s.AppendSample(&r, st, nil)
				if setLen != 1 {
					t.Fatalf("%v/%s: zero-weight edge fired", model, s.name)
				}
			}
		}
	}
}
