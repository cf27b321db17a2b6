package diffusion

import (
	"math"
	"testing"

	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

func mustGraph(t *testing.T, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// line is 0 -> 1 -> 2 with probability p per edge.
func line(t *testing.T, p float64) *graph.Graph {
	return mustGraph(t, 3, []graph.Edge{{U: 0, V: 1, W: p}, {U: 1, V: 2, W: p}})
}

func TestModelString(t *testing.T) {
	if IC.String() != "IC" || LT.String() != "LT" {
		t.Fatal("model names")
	}
	if Model(9).String() == "" {
		t.Fatal("unknown model should still print")
	}
}

func TestParseModel(t *testing.T) {
	for _, s := range []string{"IC", "ic", "LT", "lt"} {
		if _, err := ParseModel(s); err != nil {
			t.Fatalf("ParseModel(%q): %v", s, err)
		}
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Fatal("bogus model should fail")
	}
}

func TestSimulateICDeterministicEdges(t *testing.T) {
	// p = 1: everything reachable activates; p = 0: only seeds.
	g1 := line(t, 1)
	g0 := line(t, 0)
	sc := NewScratch(3)
	r := rng.New(1)
	if got := Simulate(g1, IC, []uint32{0}, nil, r, sc); got != 3 {
		t.Fatalf("p=1 spread %v want 3", got)
	}
	if got := Simulate(g0, IC, []uint32{0}, nil, r, sc); got != 1 {
		t.Fatalf("p=0 spread %v want 1", got)
	}
}

func TestSimulateLTDeterministicEdges(t *testing.T) {
	// LT with full incoming weight 1: threshold always met.
	g1 := line(t, 1)
	sc := NewScratch(3)
	r := rng.New(2)
	if got := Simulate(g1, LT, []uint32{0}, nil, r, sc); got != 3 {
		t.Fatalf("w=1 LT spread %v want 3", got)
	}
}

func TestSeedsAlwaysActive(t *testing.T) {
	g := line(t, 0.5)
	sc := NewScratch(3)
	r := rng.New(3)
	for i := 0; i < 100; i++ {
		if got := Simulate(g, IC, []uint32{2}, nil, r, sc); got < 1 {
			t.Fatal("seed not counted")
		}
	}
}

func TestDuplicateSeedsCountedOnce(t *testing.T) {
	g := line(t, 0)
	sc := NewScratch(3)
	r := rng.New(4)
	if got := Simulate(g, IC, []uint32{0, 0, 0}, nil, r, sc); got != 1 {
		t.Fatalf("duplicate seeds spread %v want 1", got)
	}
}

func TestSpreadMatchesExactIC(t *testing.T) {
	// Analytic: I({0}) on the p-line = 1 + p + p².
	p := 0.5
	g := line(t, p)
	want := 1 + p + p*p
	mean, se, err := Spread(g, IC, []uint32{0}, SpreadOptions{Runs: 200000, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-want) > 5*se+0.01 {
		t.Fatalf("IC spread %.4f ± %.4f want %.4f", mean, se, want)
	}
	// Cross-check against the brute-force evaluator.
	exact, err := ExactIC(g, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-want) > 1e-6 {
		t.Fatalf("ExactIC %.6f want %.6f", exact, want)
	}
}

func TestSpreadMatchesExactLT(t *testing.T) {
	// LT on the line: live-edge view gives the same 1 + p + p².
	p := 0.4
	g := line(t, p)
	exact, err := ExactLT(g, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + p + p*p
	if math.Abs(exact-want) > 1e-6 {
		t.Fatalf("ExactLT %.6f want %.6f", exact, want)
	}
	mean, se, err := Spread(g, LT, []uint32{0}, SpreadOptions{Runs: 200000, Seed: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-exact) > 5*se+0.01 {
		t.Fatalf("LT spread %.4f ± %.4f want %.4f", mean, se, exact)
	}
}

func TestSpreadMatchesExactOnRandomGraphIC(t *testing.T) {
	// A denser 5-node graph with mixed weights.
	edges := []graph.Edge{
		{U: 0, V: 1, W: 0.6}, {U: 0, V: 2, W: 0.3}, {U: 1, V: 3, W: 0.5},
		{U: 2, V: 3, W: 0.7}, {U: 3, V: 4, W: 0.4}, {U: 1, V: 2, W: 0.2},
	}
	g := mustGraph(t, 5, edges)
	exact, err := ExactIC(g, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	mean, se, err := Spread(g, IC, []uint32{0}, SpreadOptions{Runs: 300000, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-exact) > 5*se+0.01 {
		t.Fatalf("spread %.4f ± %.4f want exact %.4f", mean, se, exact)
	}
}

func TestSpreadMatchesExactOnRandomGraphLT(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 1, W: 0.5}, {U: 2, V: 1, W: 0.3}, {U: 1, V: 3, W: 0.6},
		{U: 0, V: 3, W: 0.2}, {U: 3, V: 4, W: 0.8},
	}
	g := mustGraph(t, 5, edges)
	exact, err := ExactLT(g, []uint32{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	mean, se, err := Spread(g, LT, []uint32{0, 2}, SpreadOptions{Runs: 300000, Seed: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-exact) > 5*se+0.01 {
		t.Fatalf("LT spread %.4f ± %.4f want exact %.4f", mean, se, exact)
	}
}

func TestSpreadMonotoneInSeeds(t *testing.T) {
	g, err := gen.ChungLu(300, 1500, 2.3, 9, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []Model{IC, LT} {
		s1, _, _ := Spread(g, model, []uint32{1}, SpreadOptions{Runs: 4000, Seed: 10})
		s2, _, _ := Spread(g, model, []uint32{1, 2, 3}, SpreadOptions{Runs: 4000, Seed: 10})
		if s2+1e-9 < s1 {
			t.Fatalf("%v: spread not monotone: %f < %f", model, s2, s1)
		}
	}
}

func TestSpreadDeterministicAcrossWorkers(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 1000, 11, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := Spread(g, IC, []uint32{0, 5}, SpreadOptions{Runs: 5000, Seed: 42, Workers: 1})
	b, _, _ := Spread(g, IC, []uint32{0, 5}, SpreadOptions{Runs: 5000, Seed: 42, Workers: 4})
	if a != b {
		t.Fatalf("spread differs across worker counts: %v vs %v", a, b)
	}
}

func TestSpreadBadSeeds(t *testing.T) {
	g := line(t, 0.5)
	if _, _, err := Spread(g, IC, []uint32{99}, SpreadOptions{Runs: 10}); err == nil {
		t.Fatal("out-of-range seed should fail")
	}
}

func TestWeightedSpreadTVM(t *testing.T) {
	// Benefit only on node 2: B({0}) = p² under IC on the line... plus
	// nothing from seeds. Weights: b = [0,0,1].
	p := 0.6
	g := line(t, p)
	w := []float64{0, 0, 1}
	mean, se, err := Spread(g, IC, []uint32{0}, SpreadOptions{Runs: 200000, Seed: 13, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	want := p * p
	if math.Abs(mean-want) > 5*se+0.005 {
		t.Fatalf("weighted spread %.4f want %.4f", mean, want)
	}
}

func TestSimulateWeightedSeedBenefit(t *testing.T) {
	g := line(t, 0)
	w := []float64{5, 1, 1}
	sc := NewScratch(3)
	r := rng.New(14)
	got := Simulate(g, IC, []uint32{0}, w, r, sc)
	if got != 5 {
		t.Fatalf("seed benefit %v want 5", got)
	}
}

func TestSimulateWeightedNilWeightsCountsNodes(t *testing.T) {
	g := line(t, 1)
	sc := NewScratch(3)
	r := rng.New(15)
	if got := Simulate(g, IC, []uint32{0}, nil, r, sc); got != 3 {
		t.Fatalf("nil weights spread %v want 3", got)
	}
}

func TestExactICTooLarge(t *testing.T) {
	g, err := gen.ErdosRenyi(30, 100, 16, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExactIC(g, []uint32{0}); err == nil {
		t.Fatal("30-edge graph should exceed exact-IC limit")
	}
}

func TestExactLTTooLarge(t *testing.T) {
	g, err := gen.ErdosRenyi(40, 500, 17, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExactLT(g, []uint32{0}); err == nil {
		t.Fatal("dense graph should exceed exact-LT limit")
	}
}

func TestExactDispatch(t *testing.T) {
	g := line(t, 0.5)
	ic, err := Exact(g, IC, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	lt, err := Exact(g, LT, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ic-lt) > 1e-6 {
		// On a line with equal weights the two models coincide.
		t.Fatalf("IC %.6f vs LT %.6f should agree on a line", ic, lt)
	}
}

func TestScratchEpochWraparound(t *testing.T) {
	g := line(t, 1)
	sc := NewScratch(3)
	sc.epoch = ^uint32(0) - 1 // near wrap
	r := rng.New(18)
	for i := 0; i < 5; i++ {
		if got := Simulate(g, IC, []uint32{0}, nil, r, sc); got != 3 {
			t.Fatalf("wraparound corrupted marks: spread %v", got)
		}
	}
}

func BenchmarkSimulateIC(b *testing.B) {
	g, err := gen.ChungLu(10000, 50000, 2.1, 1, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		b.Fatal(err)
	}
	sc := NewScratch(g.NumNodes())
	r := rng.New(1)
	seeds := []uint32{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(g, IC, seeds, nil, r, sc)
	}
}

func BenchmarkSimulateLT(b *testing.B) {
	g, err := gen.ChungLu(10000, 50000, 2.1, 1, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		b.Fatal(err)
	}
	sc := NewScratch(g.NumNodes())
	r := rng.New(1)
	seeds := []uint32{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(g, LT, seeds, nil, r, sc)
	}
}

func TestLTAccumulationAcrossParents(t *testing.T) {
	// v has two in-neighbours with weight 0.5 each. If both are seeded, the
	// accumulated weight reaches 1.0 >= any threshold, so v activates with
	// probability exactly 1 — this exercises threshold persistence and
	// weight accumulation within a single cascade.
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 2, W: 0.5}, {U: 1, V: 2, W: 0.5}})
	sc := NewScratch(3)
	for i := 0; i < 2000; i++ {
		r := rng.NewStream(271, uint64(i))
		if got := Simulate(g, LT, []uint32{0, 1}, nil, r, sc); got != 3 {
			t.Fatalf("run %d: spread %v want 3 (accumulation broken)", i, got)
		}
	}
	// With only one parent seeded, activation probability is exactly 0.5.
	hits := 0
	for i := 0; i < 200000; i++ {
		r := rng.NewStream(277, uint64(i))
		if Simulate(g, LT, []uint32{0}, nil, r, sc) == 2 {
			hits++
		}
	}
	rate := float64(hits) / 200000
	if math.Abs(rate-0.5) > 0.01 {
		t.Fatalf("single-parent LT activation rate %.4f want 0.5", rate)
	}
}

func TestICNoDoubleActivationChance(t *testing.T) {
	// u -> v with w = 0.5 and a seed set containing u twice must give v
	// exactly one activation chance: rate 0.5, not 0.75.
	g := mustGraph(t, 2, []graph.Edge{{U: 0, V: 1, W: 0.5}})
	sc := NewScratch(2)
	hits := 0
	for i := 0; i < 200000; i++ {
		r := rng.NewStream(281, uint64(i))
		if Simulate(g, IC, []uint32{0, 0}, nil, r, sc) == 2 {
			hits++
		}
	}
	rate := float64(hits) / 200000
	if math.Abs(rate-0.5) > 0.01 {
		t.Fatalf("IC activation rate %.4f want 0.5", rate)
	}
}
