package core

import (
	"errors"
	"math"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
	"stopandstare/internal/stats"
)

func tinyGraph(t testing.TB) *graph.Graph {
	t.Helper()
	// 10 nodes, 14 edges: small enough for exhaustive OPT computation.
	edges := []graph.Edge{
		{U: 0, V: 1, W: 0.7}, {U: 0, V: 2, W: 0.5}, {U: 1, V: 3, W: 0.6},
		{U: 2, V: 3, W: 0.4}, {U: 3, V: 4, W: 0.8}, {U: 4, V: 5, W: 0.3},
		{U: 5, V: 6, W: 0.5}, {U: 6, V: 0, W: 0.2}, {U: 7, V: 8, W: 0.9},
		{U: 8, V: 9, W: 0.6}, {U: 9, V: 7, W: 0.1}, {U: 2, V: 7, W: 0.3},
		{U: 1, V: 9, W: 0.2}, {U: 4, V: 8, W: 0.4},
	}
	g, err := graph.FromEdges(10, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

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

// exactOPT enumerates all size-k seed sets and returns the optimum exact
// influence (IC model, tiny graphs only).
func exactOPT(t *testing.T, g *graph.Graph, model diffusion.Model, k int) (float64, []uint32) {
	t.Helper()
	n := g.NumNodes()
	best := -1.0
	var bestSet []uint32
	var rec func(start int, chosen []uint32)
	rec = func(start int, chosen []uint32) {
		if len(chosen) == k {
			v, err := diffusion.Exact(g, model, chosen)
			if err != nil {
				t.Fatal(err)
			}
			if v > best {
				best = v
				bestSet = append([]uint32(nil), chosen...)
			}
			return
		}
		if start >= n {
			return
		}
		rec(start+1, append(chosen, uint32(start)))
		rec(start+1, chosen)
	}
	rec(0, nil)
	return best, bestSet
}

func TestOptionValidation(t *testing.T) {
	g := tinyGraph(t)
	s := sampler(t, g, diffusion.IC)
	cases := []Options{
		{K: 0, Epsilon: 0.1},
		{K: 11, Epsilon: 0.1},
		{K: 2, Epsilon: 0},
		{K: 2, Epsilon: 0.7}, // ≥ 1−1/e
		{K: 2, Epsilon: 0.1, Delta: 2},
	}
	for i, opt := range cases {
		if _, err := runSSA(s, opt); err == nil {
			t.Fatalf("case %d: SSA should reject %+v", i, opt)
		}
		if _, err := runDSSA(s, opt); err == nil {
			t.Fatalf("case %d: DSSA should reject %+v", i, opt)
		}
	}
}

func TestEpsSplitDefaultsMatchPaper(t *testing.T) {
	// ε = 0.1 ⇒ ε₂ = ε₃ = ε/(2(1−1/e)) ≈ 2/25, ε₁ ≈ 1/78 (Eq. 21).
	opt := Options{Epsilon: 0.1}
	e1, e2, e3, err := opt.epsSplit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e2-0.0791) > 0.001 || e2 != e3 {
		t.Fatalf("e2=%v e3=%v want ≈ 2/25", e2, e3)
	}
	if e1 < 0.008 || e1 > 0.02 {
		t.Fatalf("e1=%v want ≈ 1/78", e1)
	}
	// Eq. 18 must hold with equality.
	c := stats.OneMinusInvE
	lhs := c * (e1 + e2 + e1*e2 + e3) / ((1 + e1) * (1 + e2))
	if math.Abs(lhs-0.1) > 1e-9 {
		t.Fatalf("Eq. 18 not tight: %v", lhs)
	}
}

func TestEpsSplitCustomValidated(t *testing.T) {
	opt := Options{Epsilon: 0.1, Eps1: 5, Eps2: 0.5, Eps3: 0.5}
	if _, _, _, err := opt.epsSplit(); !errors.Is(err, ErrBadSplit) {
		t.Fatalf("loose split should be rejected: %v", err)
	}
	ok := Options{Epsilon: 0.3, Eps1: 0.01, Eps2: 0.1, Eps3: 0.1}
	if _, _, _, err := ok.epsSplit(); err != nil {
		t.Fatalf("valid split rejected: %v", err)
	}
}

func TestSSAGuaranteeTinyIC(t *testing.T) {
	g := tinyGraph(t)
	s := sampler(t, g, diffusion.IC)
	k, eps := 2, 0.3
	opt, _ := exactOPT(t, g, diffusion.IC, k)
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := runSSA(s, Options{K: k, Epsilon: eps, Delta: 0.05, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Seeds) != k {
			t.Fatalf("returned %d seeds", len(res.Seeds))
		}
		got, err := diffusion.ExactIC(g, res.Seeds)
		if err != nil {
			t.Fatal(err)
		}
		bound := (1 - 1/math.E - eps) * opt
		if got < bound {
			t.Fatalf("seed %d: I(Ŝ)=%.4f below (1-1/e-ε)·OPT=%.4f", seed, got, bound)
		}
	}
}

func TestDSSAGuaranteeTinyIC(t *testing.T) {
	g := tinyGraph(t)
	s := sampler(t, g, diffusion.IC)
	k, eps := 2, 0.3
	opt, _ := exactOPT(t, g, diffusion.IC, k)
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := runDSSA(s, Options{K: k, Epsilon: eps, Delta: 0.05, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		got, err := diffusion.ExactIC(g, res.Seeds)
		if err != nil {
			t.Fatal(err)
		}
		bound := (1 - 1/math.E - eps) * opt
		if got < bound {
			t.Fatalf("seed %d: I(Ŝ)=%.4f below bound %.4f", seed, got, bound)
		}
	}
}

func TestSSAGuaranteeTinyLT(t *testing.T) {
	// LT variant on a sparser graph to keep exact enumeration cheap.
	edges := []graph.Edge{
		{U: 0, V: 1, W: 0.6}, {U: 1, V: 2, W: 0.5}, {U: 2, V: 3, W: 0.7},
		{U: 3, V: 4, W: 0.4}, {U: 0, V: 5, W: 0.3}, {U: 5, V: 6, W: 0.8},
		{U: 6, V: 7, W: 0.2},
	}
	g, err := graph.FromEdges(8, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := sampler(t, g, diffusion.LT)
	k, eps := 2, 0.3
	opt, _ := exactOPT(t, g, diffusion.LT, k)
	res, err := runSSA(s, Options{K: k, Epsilon: eps, Delta: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := diffusion.ExactLT(g, res.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if bound := (1 - 1/math.E - eps) * opt; got < bound {
		t.Fatalf("LT: I(Ŝ)=%.4f below bound %.4f", got, bound)
	}
	res2, err := runDSSA(s, Options{K: k, Epsilon: eps, Delta: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := diffusion.ExactLT(g, res2.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if bound := (1 - 1/math.E - eps) * opt; got2 < bound {
		t.Fatalf("LT D-SSA: I(Ŝ)=%.4f below bound %.4f", got2, bound)
	}
}

func TestInfluenceEstimateAccuracy(t *testing.T) {
	// The reported Î(Ŝ) must agree with forward MC within the ε envelope.
	g := midGraph(t, 1000, 5000, 3)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := sampler(t, g, model)
		res, err := runDSSA(s, Options{K: 10, Epsilon: 0.1, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		mc, se, err := diffusion.Spread(g, model, res.Seeds, diffusion.SpreadOptions{Runs: 20000, Seed: 5, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Influence-mc) > 0.15*mc+5*se {
			t.Fatalf("%v: Î=%.2f vs MC=%.2f±%.2f", model, res.Influence, mc, se)
		}
	}
}

func TestDSSAEpsilonTAtTermination(t *testing.T) {
	g := midGraph(t, 1500, 8000, 13)
	s := sampler(t, g, diffusion.LT)
	res, err := runDSSA(s, Options{K: 20, Epsilon: 0.15, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HitCap && res.EpsilonT > 0.15+1e-12 {
		t.Fatalf("terminated with ε_t=%.4f > ε", res.EpsilonT)
	}
	if res.VerifySamples != 0 {
		t.Fatal("D-SSA must not discard verification samples")
	}
	if res.TotalSamples != res.CoverageSamples {
		t.Fatal("D-SSA total = coverage samples")
	}
}

func TestSSACountsVerifySamples(t *testing.T) {
	g := midGraph(t, 1500, 8000, 13)
	s := sampler(t, g, diffusion.LT)
	res, err := runSSA(s, Options{K: 20, Epsilon: 0.15, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifySamples <= 0 {
		t.Fatal("SSA should have generated Estimate-Inf samples")
	}
	if res.TotalSamples != res.CoverageSamples+res.VerifySamples {
		t.Fatal("sample accounting broken")
	}
	if res.MemoryBytes <= 0 {
		t.Fatal("memory accounting missing")
	}
}

func TestHitCapPath(t *testing.T) {
	g := midGraph(t, 500, 2500, 19)
	s := sampler(t, g, diffusion.IC)
	// An absurd OPT lower bound shrinks Nmax below the first checkpoint, so
	// the run must exit via the cap and still return k seeds.
	res, err := runSSA(s, Options{K: 3, Epsilon: 0.2, Seed: 23, OptLowerBound: 1e18})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HitCap {
		t.Fatal("expected cap exit")
	}
	if len(res.Seeds) != 3 {
		t.Fatalf("cap exit must still return k seeds, got %d", len(res.Seeds))
	}
	resD, err := runDSSA(s, Options{K: 3, Epsilon: 0.2, Seed: 23, OptLowerBound: 1e18})
	if err != nil {
		t.Fatal(err)
	}
	if !resD.HitCap || len(resD.Seeds) != 3 {
		t.Fatalf("DSSA cap exit wrong: hit=%v seeds=%d", resD.HitCap, len(resD.Seeds))
	}
}

func TestMaxIterationsCap(t *testing.T) {
	g := midGraph(t, 500, 2500, 29)
	s := sampler(t, g, diffusion.IC)
	res, err := runSSA(s, Options{K: 3, Epsilon: 0.1, Seed: 1, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 1 {
		t.Fatalf("iterations %d exceeded cap", res.Iterations)
	}
}

func TestDeltaDefaultsToOneOverN(t *testing.T) {
	g := tinyGraph(t)
	s := sampler(t, g, diffusion.IC)
	o := Options{K: 1, Epsilon: 0.3}
	if err := o.normalize(s); err != nil {
		t.Fatal(err)
	}
	if o.Delta != 0.1 {
		t.Fatalf("delta default %v want 1/n = 0.1", o.Delta)
	}
}

func TestEstimatorOneSidedBound(t *testing.T) {
	// Lemma 3: Pr[I^c(S) ≤ (1+ε′)I(S)] ≥ 1−δ′; check the estimate lands
	// within a generous window of the MC truth.
	g := midGraph(t, 1000, 5000, 31)
	s := sampler(t, g, diffusion.IC)
	seeds := []uint32{1, 2, 3, 4, 5}
	mc, _, err := diffusion.Spread(g, diffusion.IC, seeds, diffusion.SpreadOptions{Runs: 30000, Seed: 37, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	est := newEstimator(s, 41, nil, 2)
	ic, used, ok := est.estimate(seeds, 0.1, 0.01, 1<<40)
	if !ok {
		t.Fatal("estimate should not hit the cap")
	}
	if used <= 0 || est.total != used {
		t.Fatalf("sample accounting: used=%d total=%d", used, est.total)
	}
	if ic > (1+0.1)*mc*1.05 {
		t.Fatalf("I^c=%.2f far above (1+ε′)I=%.2f", ic, (1+0.1)*mc)
	}
	if ic < mc*0.8 {
		t.Fatalf("I^c=%.2f far below truth %.2f", ic, mc)
	}
}

func TestEstimatorCapReturnsNotOK(t *testing.T) {
	g := midGraph(t, 1000, 5000, 43)
	s := sampler(t, g, diffusion.IC)
	est := newEstimator(s, 47, nil, 2)
	if _, used, ok := est.estimate([]uint32{0}, 0.05, 0.001, 3); ok {
		t.Fatal("3-sample cap must fail for a tight stopping rule")
	} else if used != 3 {
		t.Fatalf("used %d want 3", used)
	}
}

func TestSSAFasterThanCap(t *testing.T) {
	// On a graph with clear hubs, SSA/D-SSA must terminate via the
	// statistical conditions well before Nmax.
	g := midGraph(t, 3000, 15000, 61)
	s := sampler(t, g, diffusion.LT)
	res, err := runSSA(s, Options{K: 10, Epsilon: 0.2, Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitCap {
		t.Fatal("SSA hit the cap on an easy instance")
	}
	nmax, _ := (&Options{K: 10, Epsilon: 0.2, Delta: 1.0 / 3000, OptLowerBound: 10}).thresholds(s)
	if float64(res.CoverageSamples) >= nmax {
		t.Fatalf("samples %d not below Nmax %.0f", res.CoverageSamples, nmax)
	}
}

func TestThresholdsMagnitude(t *testing.T) {
	g := midGraph(t, 1000, 5000, 71)
	s := sampler(t, g, diffusion.IC)
	o := Options{K: 10, Epsilon: 0.1, Delta: 0.001, OptLowerBound: 10}
	nmax, imax := o.thresholds(s)
	if nmax <= 0 || imax < 1 {
		t.Fatalf("nmax=%v imax=%d", nmax, imax)
	}
	// Nmax grows as k shrinks.
	o2 := Options{K: 1, Epsilon: 0.1, Delta: 0.001, OptLowerBound: 1}
	nmax2, _ := o2.thresholds(s)
	if nmax2 <= nmax {
		t.Fatal("Nmax should grow when k (and OPT lower bound) shrink")
	}
}
