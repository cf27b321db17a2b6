package ris

import (
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// TestHitsMarkedMatchesAppendSample checks the hit walk against the full
// walk on every plan class: for each verification id, HitsMarked's answer is
// "AppendSample's set meets S", and a hit visits no more nodes than the set
// holds — strictly fewer on most hits, or the early exit saves nothing.
func TestHitsMarkedMatchesAppendSample(t *testing.T) {
	wc, err := gen.ChungLu(3000, 18000, 2.1, 7, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := gen.ChungLu(3000, 18000, 2.1, 7, graph.BuildOptions{Model: graph.Trivalency, TrivalencySeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, wc.NumNodes())
	wr := rng.New(13)
	for v := range weights {
		weights[v] = wr.Float64()
	}
	wris, err := NewWeightedSampler(wc, diffusion.IC, weights)
	if err != nil {
		t.Fatal(err)
	}
	general := mustSampler(t, tri, diffusion.IC)
	hasGeneral := false
	for _, c := range general.mustPlan().class {
		hasGeneral = hasGeneral || c == classGeneral
	}
	if !hasGeneral {
		t.Fatal("trivalency plan has no general-class node")
	}
	// Low Chung–Lu ids carry the largest expected degrees: a seed set that
	// RR sets reach often, so hits are common.
	marked := make([]bool, wc.NumNodes())
	for v := 0; v < 30; v++ {
		marked[v] = true
	}
	for _, tc := range []struct {
		name string
		s    *Sampler
	}{
		{"IC-uniform", mustSampler(t, wc, diffusion.IC)},
		{"IC-general", general},
		{"LT", mustSampler(t, wc, diffusion.LT)},
		{"WRIS", wris},
	} {
		st, hst := tc.s.NewState(), tc.s.NewState()
		var r, hr rng.Source
		var buf, hbuf []uint32
		hits, shorter := 0, 0
		for id := uint64(0); id < 10000; id++ {
			SeedVerifyStream(&r, 21, id)
			SeedVerifyStream(&hr, 21, id)
			var setLen int
			buf, setLen = tc.s.AppendSample(&r, st, buf[:0])
			want := false
			for _, v := range buf {
				want = want || marked[v]
			}
			var hit bool
			hit, hbuf = tc.s.HitsMarked(&hr, hst, hbuf, marked)
			if hit != want {
				t.Fatalf("%s id %d: HitsMarked = %v, set %v meets S = %v", tc.name, id, hit, buf, want)
			}
			if !hit {
				continue
			}
			hits++
			// The walk's queue plus the marked node it stopped at.
			visited := len(hbuf) + 1
			if visited > setLen {
				t.Fatalf("%s id %d: hit walk visited %d nodes, the set has %d", tc.name, id, visited, setLen)
			}
			if visited < setLen {
				shorter++
			}
		}
		if hits < 200 || 2*shorter <= hits {
			t.Fatalf("%s: %d hits, %d stopped short of the full set", tc.name, hits, shorter)
		}
		t.Logf("%s: %d hits, %d stopped short", tc.name, hits, shorter)
	}
}
