package baselines

import (
	"math"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
)

func midGraph(t testing.TB, n int, m int64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.ChungLu(n, m, 2.1, seed, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sampler(t testing.TB, g *graph.Graph, model diffusion.Model) *ris.Sampler {
	t.Helper()
	s, err := ris.NewSampler(g, model)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOptionsValidation(t *testing.T) {
	g := midGraph(t, 100, 500, 1)
	s := sampler(t, g, diffusion.IC)
	bad := []Options{
		{K: 0, Epsilon: 0.1},
		{K: 101, Epsilon: 0.1},
		{K: 5, Epsilon: 0},
		{K: 5, Epsilon: 1.2},
		{K: 5, Epsilon: 0.1, Delta: 3},
	}
	for i, o := range bad {
		if _, err := IMM(s, o); err == nil {
			t.Fatalf("case %d: IMM should reject %+v", i, o)
		}
		if _, err := TIMPlus(s, o); err == nil {
			t.Fatalf("case %d: TIM+ should reject %+v", i, o)
		}
	}
	if _, err := IMM(nil, Options{K: 1, Epsilon: 0.1}); err == nil {
		t.Fatal("nil sampler should fail")
	}
}

func TestIMMReturnsQualitySeeds(t *testing.T) {
	g := midGraph(t, 1000, 5000, 3)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := sampler(t, g, model)
		res, err := IMM(s, Options{K: 10, Epsilon: 0.2, Seed: 5, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Seeds) != 10 {
			t.Fatalf("IMM returned %d seeds", len(res.Seeds))
		}
		if res.TotalSamples <= 0 || res.Influence <= 0 {
			t.Fatalf("degenerate result %+v", res)
		}
		// Sanity: IMM seeds beat random seeds by a clear margin.
		immSpread, _, _ := diffusion.Spread(g, model, res.Seeds, diffusion.SpreadOptions{Runs: 5000, Seed: 7, Workers: 2})
		rnd, _ := RandomSeeds(g, 10, 9)
		rndSpread, _, _ := diffusion.Spread(g, model, rnd, diffusion.SpreadOptions{Runs: 5000, Seed: 7, Workers: 2})
		if immSpread < rndSpread {
			t.Fatalf("%v: IMM (%.1f) worse than random (%.1f)", model, immSpread, rndSpread)
		}
	}
}

func TestTIMAndTIMPlus(t *testing.T) {
	g := midGraph(t, 1000, 5000, 11)
	s := sampler(t, g, diffusion.LT)
	tim, err := TIM(s, Options{K: 10, Epsilon: 0.2, Seed: 13, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	timp, err := TIMPlus(s, Options{K: 10, Epsilon: 0.2, Seed: 13, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tim.Seeds) != 10 || len(timp.Seeds) != 10 {
		t.Fatal("wrong seed counts")
	}
	// TIM+ refinement can only raise KPT, hence needs no more samples.
	if timp.TotalSamples > tim.TotalSamples {
		t.Fatalf("TIM+ used more final samples than TIM: %d vs %d", timp.TotalSamples, tim.TotalSamples)
	}
}

func TestCELFMatchesGreedyQuality(t *testing.T) {
	g := midGraph(t, 120, 600, 23)
	opt := GreedyOptions{K: 3, Model: diffusion.IC, MCRuns: 400, Seed: 29, Workers: 2}
	celf, err := CELF(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Greedy(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// CELF is exact lazy greedy up to MC noise: spreads must be close.
	sc, _, _ := diffusion.Spread(g, diffusion.IC, celf.Seeds, diffusion.SpreadOptions{Runs: 20000, Seed: 31, Workers: 2})
	sg, _, _ := diffusion.Spread(g, diffusion.IC, gr.Seeds, diffusion.SpreadOptions{Runs: 20000, Seed: 31, Workers: 2})
	if math.Abs(sc-sg) > 0.15*sg+1 {
		t.Fatalf("CELF %.2f vs greedy %.2f", sc, sg)
	}
	if celf.Evaluations > gr.Evaluations {
		t.Fatalf("CELF (%d evals) did more work than plain greedy (%d)", celf.Evaluations, gr.Evaluations)
	}
}

func TestCELFPlusPlus(t *testing.T) {
	g := midGraph(t, 120, 600, 37)
	opt := GreedyOptions{K: 3, Model: diffusion.LT, MCRuns: 400, Seed: 41, Workers: 2}
	cpp, err := CELFPlusPlus(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpp.Seeds) != 3 {
		t.Fatalf("CELF++ returned %d seeds", len(cpp.Seeds))
	}
	celf, err := CELF(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	s1, _, _ := diffusion.Spread(g, diffusion.LT, cpp.Seeds, diffusion.SpreadOptions{Runs: 20000, Seed: 43, Workers: 2})
	s2, _, _ := diffusion.Spread(g, diffusion.LT, celf.Seeds, diffusion.SpreadOptions{Runs: 20000, Seed: 43, Workers: 2})
	if math.Abs(s1-s2) > 0.15*s2+1 {
		t.Fatalf("CELF++ %.2f vs CELF %.2f", s1, s2)
	}
}

func TestGreedyOptionsValidation(t *testing.T) {
	g := midGraph(t, 50, 250, 47)
	if _, err := CELF(g, GreedyOptions{K: 0}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := CELFPlusPlus(nil, GreedyOptions{K: 1}); err == nil {
		t.Fatal("nil graph should fail")
	}
	if _, err := Greedy(g, GreedyOptions{K: 100}); err == nil {
		t.Fatal("k>n should fail")
	}
}

func TestHighDegree(t *testing.T) {
	g := midGraph(t, 200, 1200, 53)
	seeds, err := HighDegree(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 5 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	// Degrees must be non-increasing.
	for i := 1; i < len(seeds); i++ {
		if g.OutDegree(seeds[i-1]) < g.OutDegree(seeds[i]) {
			t.Fatal("not sorted by degree")
		}
	}
	if _, err := HighDegree(g, 0); err == nil {
		t.Fatal("k=0 should fail")
	}
}

func TestSingleDiscount(t *testing.T) {
	g := midGraph(t, 200, 1200, 59)
	seeds, err := SingleDiscount(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 8 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	seen := map[uint32]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatal("duplicate seed")
		}
		seen[s] = true
	}
	if _, err := SingleDiscount(g, 0); err == nil {
		t.Fatal("k=0 should fail")
	}
}

func TestRandomSeeds(t *testing.T) {
	g := midGraph(t, 100, 500, 61)
	a, err := RandomSeeds(g, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RandomSeeds(g, 10, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
	seen := map[uint32]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatal("duplicate random seed")
		}
		seen[s] = true
	}
	if _, err := RandomSeeds(g, 0, 1); err == nil {
		t.Fatal("k=0 should fail")
	}
}

func TestIMMDeterministic(t *testing.T) {
	g := midGraph(t, 500, 2500, 67)
	s := sampler(t, g, diffusion.IC)
	a, err := IMM(s, Options{K: 5, Epsilon: 0.2, Seed: 71, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := IMM(s, Options{K: 5, Epsilon: 0.2, Seed: 71, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSamples != b.TotalSamples {
		t.Fatal("IMM sample counts differ across workers")
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatal("IMM seeds differ across workers")
		}
	}
}

func TestIMMSamplesGrowAsEpsilonShrinks(t *testing.T) {
	g := midGraph(t, 800, 4000, 101)
	s := sampler(t, g, diffusion.LT)
	loose, err := IMM(s, Options{K: 10, Epsilon: 0.4, Seed: 103, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := IMM(s, Options{K: 10, Epsilon: 0.1, Seed: 103, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tight.TotalSamples <= loose.TotalSamples {
		t.Fatalf("tighter epsilon should need more samples: %d vs %d",
			tight.TotalSamples, loose.TotalSamples)
	}
}

func TestTIMPlusSamplesGrowWithSmallerDelta(t *testing.T) {
	g := midGraph(t, 800, 4000, 107)
	s := sampler(t, g, diffusion.LT)
	a, err := TIMPlus(s, Options{K: 10, Epsilon: 0.2, Delta: 0.1, Seed: 109, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TIMPlus(s, Options{K: 10, Epsilon: 0.2, Delta: 1e-6, Seed: 109, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalSamples <= a.TotalSamples {
		t.Fatalf("smaller delta should need more samples: %d vs %d",
			b.TotalSamples, a.TotalSamples)
	}
}

// TestCeilPosCapsAtMaxSets: an IMM/TIM θ past the int32 id space is capped
// at ris.MaxSets, never passed on to wrap RR-set ids.
func TestCeilPosCapsAtMaxSets(t *testing.T) {
	if got := ceilPos(1e15); got > ris.MaxSets {
		t.Fatalf("ceilPos(1e15) = %d, above ris.MaxSets = %d", got, ris.MaxSets)
	}
	if got := ceilPos(float64(ris.MaxSets) + 0.5); got != ris.MaxSets {
		t.Fatalf("ceilPos just past ris.MaxSets = %d, want %d", got, ris.MaxSets)
	}
	if ceilPos(0.3) != 1 || ceilPos(math.NaN()) != 1 || ceilPos(41.2) != 42 {
		t.Fatal("ceilPos below the cap must round up to a count ≥ 1")
	}
}
