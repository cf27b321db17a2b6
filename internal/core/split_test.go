package core

import (
	"math"
	"testing"
	"testing/quick"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/stats"
)

func TestRegimeFor(t *testing.T) {
	if RegimeFor(59_000) != SmallNetwork {
		t.Fatal("NetHEPT is small")
	}
	if RegimeFor(2_000_000) != ModerateNetwork {
		t.Fatal("DBLP is moderate")
	}
	if RegimeFor(1_500_000_000) != LargeNetwork {
		t.Fatal("Twitter is large")
	}
}

func TestRecommendedSplitSatisfiesEq18(t *testing.T) {
	c := stats.OneMinusInvE
	f := func(raw uint16, regimeRaw uint8) bool {
		eps := 0.01 + float64(raw%600)/1000
		if eps >= c {
			return true
		}
		regime := NetworkRegime(regimeRaw % 3)
		e1, e2, e3, ok := RecommendedSplit(eps, regime)
		if !ok {
			return false
		}
		lhs := c * (e1 + e2 + e1*e2 + e3) / ((1 + e1) * (1 + e2))
		return math.Abs(lhs-eps) < 1e-9 && e1 > 0 && e2 > 0 && e2 < 1 && e3 == e2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecommendedSplitRegimeShapes(t *testing.T) {
	eps := 0.2 // wide enough that all three ratios are feasible unclamped
	e1S, _, _, _ := RecommendedSplit(eps, SmallNetwork)
	e1M, _, _, _ := RecommendedSplit(eps, ModerateNetwork)
	e1L, e2L, _, _ := RecommendedSplit(eps, LargeNetwork)
	if !(e1S > e1M && e1M > e1L) {
		t.Fatalf("ε₁ ordering wrong: %v %v %v", e1S, e1M, e1L)
	}
	if e1L >= e2L {
		t.Fatal("large networks want ε₁ ≪ ε₂")
	}
}

func TestRecommendedSplitRejectsBadEps(t *testing.T) {
	if _, _, _, ok := RecommendedSplit(0, SmallNetwork); ok {
		t.Fatal("eps=0 should fail")
	}
	if _, _, _, ok := RecommendedSplit(0.7, SmallNetwork); ok {
		t.Fatal("eps beyond 1-1/e should fail")
	}
}

func TestRecommendedSplitRunsInSSA(t *testing.T) {
	g := midGraph(t, 800, 4000, 281)
	s := sampler(t, g, diffusion.LT)
	e1, e2, e3, ok := RecommendedSplit(0.2, SmallNetwork)
	if !ok {
		t.Fatal("split infeasible")
	}
	res, err := runSSA(s, Options{K: 5, Epsilon: 0.2, Seed: 283,
		Eps1: e1, Eps2: e2, Eps3: e3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("%d seeds", len(res.Seeds))
	}
}
