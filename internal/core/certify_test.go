package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/ris"
	"stopandstare/internal/stats"
)

func TestCertifyMatchesExact(t *testing.T) {
	g := tinyGraph(t)
	s := sampler(t, g, diffusion.IC)
	seeds := []uint32{0, 7}
	exact, err := diffusion.ExactIC(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		cert, err := Certify(s, seeds, 0.1, 0.01, seed)
		if err != nil {
			t.Fatal(err)
		}
		if cert.Influence < (1-0.12)*exact || cert.Influence > (1+0.12)*exact {
			t.Fatalf("seed %d: certificate %.4f outside (1±ε)·%.4f", seed, cert.Influence, exact)
		}
		if cert.Samples <= 0 {
			t.Fatal("certificate without samples")
		}
	}
}

func TestCertifyMatchesMCOnMidGraph(t *testing.T) {
	g := midGraph(t, 2000, 10000, 157)
	s := sampler(t, g, diffusion.LT)
	seeds := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	mc, se, err := diffusion.Spread(g, diffusion.LT, seeds, diffusion.SpreadOptions{Runs: 30000, Seed: 163, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := Certify(s, seeds, 0.05, 0.01, 167)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cert.Influence-mc) > 0.07*mc+5*se {
		t.Fatalf("certificate %.2f vs MC %.2f±%.2f", cert.Influence, mc, se)
	}
}

func TestCertifyCheaperThanMCForSmallInfluence(t *testing.T) {
	if testing.Short() {
		t.Skip("large-graph certification comparison is slow; skipped in -short")
	}
	// For a low-influence seed in a large graph, certification needs
	// O(Υ·n/I) RR sets; just confirm it stays sane and terminates fast.
	g := midGraph(t, 5000, 25000, 173)
	s := sampler(t, g, diffusion.IC)
	// Pick a low-out-degree node.
	var v uint32
	for u := 0; u < 5000; u++ {
		if g.OutDegree(uint32(u)) == 0 {
			v = uint32(u)
			break
		}
	}
	cert, err := Certify(s, []uint32{v}, 0.2, 0.05, 179)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Influence < 0.8 || cert.Influence > 2.0 {
		t.Fatalf("isolated-ish node certificate %.3f want ≈ 1", cert.Influence)
	}
}

func TestCertifyValidation(t *testing.T) {
	g := tinyGraph(t)
	s := sampler(t, g, diffusion.IC)
	if _, err := Certify(nil, []uint32{0}, 0.1, 0.1, 1); !errors.Is(err, ErrNilSampler) {
		t.Fatalf("nil sampler: %v", err)
	}
	if _, err := Certify(s, nil, 0.1, 0.1, 1); !errors.Is(err, ErrEmptySeeds) {
		t.Fatalf("empty seeds: %v", err)
	}
	if _, err := Certify(s, []uint32{0}, 0, 0.1, 1); err == nil {
		t.Fatal("eps=0 should fail")
	}
	if _, err := Certify(s, []uint32{99}, 0.1, 0.1, 1); err == nil {
		t.Fatal("out-of-range seed should fail")
	}
}

func TestCertifyWeightedFloor(t *testing.T) {
	// A seed set with near-zero benefit must be refused, not spin forever.
	g := midGraph(t, 500, 2500, 181)
	w := make([]float64, 500)
	w[13] = 1e9 // all benefit far away from the chosen seed
	ws, err := ris.NewWeightedSampler(g, diffusion.IC, w)
	if err != nil {
		t.Fatal(err)
	}
	// Find a node that cannot reach 13: any out-degree-0 node.
	v := uint32(0)
	found := false
	for u := 0; u < 500; u++ {
		if g.OutDegree(uint32(u)) == 0 && u != 13 {
			v = uint32(u)
			found = true
			break
		}
	}
	if !found {
		t.Skip("generated graph has no out-degree-0 node")
	}
	// Explicit small budget keeps the refusal path fast: Γ = 1e9 would
	// otherwise allow an enormous default cap.
	if _, err := Certify(ws, []uint32{v}, 0.3, 0.1, 191, 100000); err == nil {
		t.Fatal("benefit-zero certification should be refused")
	}
}

// TestCertifyFloorMessage checks the refusal's success count: the rule runs
// at δ/2 per tail, so the count it misses is ⌈Λ₂(ε, δ/2)⌉.
func TestCertifyFloorMessage(t *testing.T) {
	g := tinyGraph(t)
	s := sampler(t, g, diffusion.IC)
	const eps, delta = 0.1, 0.01
	_, err := Certify(s, []uint32{0}, eps, delta, 1, 5)
	if err == nil {
		t.Fatal("5 samples certified an influence")
	}
	want := fmt.Sprintf("(5 samples without %.0f successes)", math.Ceil(stats.StoppingRuleThreshold(eps, delta/2)))
	if !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("error %q, want it to end %q", err, want)
	}
}

// TestCertifyBelowFloorKeepsNoSets is the scan's memory bound on Certify: a
// seed whose influence lies below the certifiable floor runs the rule to
// its cap of 2²² ids, and the live heap stays within one scan slice, where
// keeping the sets would hold tens of MB.
func TestCertifyBelowFloorKeepsNoSets(t *testing.T) {
	if testing.Short() {
		t.Skip("samples 2²² RR sets; skipped in -short")
	}
	g := midGraph(t, 5000, 25000, 173)
	s := sampler(t, g, diffusion.IC)
	v := uint32(0)
	for g.OutDegree(v) != 0 {
		v++ // an out-degree-0 node: it reaches only the sets rooted at it
	}
	const cap = 1 << 22
	var err error
	peak := peakLiveHeap(func() { _, err = Certify(s, []uint32{v}, 0.02, 0.05, 7, cap) })
	if want := fmt.Sprintf("(%d samples without", cap); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Certify below the floor: %v, want a refusal after %d samples", err, cap)
	}
	if peak > scanBound {
		t.Fatalf("the rule kept %d B live over %d ids, want ≤ %d", peak, cap, scanBound)
	}
	t.Logf("peak live heap %d B over %d ids", peak, cap)
}
