package ris

import (
	"slices"
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

// requireVisitedClear fails unless every word of every lane's visited
// bitset in st is zero: the state every walk must leave behind.
func requireVisitedClear(tb testing.TB, ctx string, st *State) {
	tb.Helper()
	for i := range st.lanes {
		for w, x := range st.lanes[i].vis {
			if x != 0 {
				tb.Fatalf("%s: lane %d visited word %d = %#x after the walk", ctx, i, w, x)
			}
		}
	}
}

// TestVisitedBitsClearAfterWalk checks that every exit of a walk clears the
// lanes' visited bitsets: the chunk path on IC, LT and WRIS plans,
// AppendSample, and HitsMarked missing, hitting at the root, and hitting
// past it — inside an IC frontier, where frontier members after the hit are
// marked too, and on an LT step.
func TestVisitedBitsClearAfterWalk(t *testing.T) {
	wc, err := gen.ChungLu(2000, 12000, 2.1, 5, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := gen.ChungLu(2000, 12000, 2.1, 5, graph.BuildOptions{Model: graph.Trivalency, TrivalencySeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := wc.NumNodes()
	weights := make([]float64, n)
	wr := rng.New(17)
	for v := range weights {
		weights[v] = wr.Float64()
	}
	wris, err := NewWeightedSampler(wc, diffusion.IC, weights)
	if err != nil {
		t.Fatal(err)
	}
	none, all, stop := make([]bool, n), make([]bool, n), make([]bool, n)
	for v := range all {
		all[v] = true
	}
	for _, tc := range []struct {
		name string
		s    *Sampler
	}{
		{"IC-uniform", mustSampler(t, wc, diffusion.IC)},
		{"IC-general", mustSampler(t, tri, diffusion.IC)},
		{"LT", mustSampler(t, wc, diffusion.LT)},
		{"WRIS", wris},
	} {
		st := tc.s.NewState()
		res := tc.s.sampleChunk(tc.s.mustPlan(), st, 5, 0, 3000)
		if len(res.offsets) != 3001 {
			t.Fatalf("%s: chunk holds %d sets", tc.name, len(res.offsets)-1)
		}
		requireVisitedClear(t, tc.name+" sampleChunk", st)

		var r rng.Source
		var buf, hbuf []uint32
		pastCut := 0 // hits past the root with set members after the hit
		for id := uint64(0); id < 2000; id++ {
			r.SeedStream(9, id)
			buf, _ = tc.s.AppendSample(&r, st, buf[:0])
			requireVisitedClear(t, tc.name+" AppendSample", st)

			r.SeedStream(9, id)
			var hit bool
			if hit, hbuf = tc.s.HitsMarked(&r, st, hbuf, none); hit {
				t.Fatalf("%s id %d: hit an empty stop set", tc.name, id)
			}
			requireVisitedClear(t, tc.name+" HitsMarked miss", st)

			r.SeedStream(9, id)
			if hit, hbuf = tc.s.HitsMarked(&r, st, hbuf, all); !hit || len(hbuf) != 0 {
				t.Fatalf("%s id %d: hit %v after %v, want a hit at the root", tc.name, id, hit, hbuf)
			}
			requireVisitedClear(t, tc.name+" HitsMarked at the root", st)

			// Hit at the first node past the root (the root's frontier, or
			// the walk's first step) and at the set's last node.
			for _, k := range []int{1, len(buf) - 1} {
				if k < 1 || k >= len(buf) {
					continue
				}
				stop[buf[k]] = true
				r.SeedStream(9, id)
				hit, hbuf = tc.s.HitsMarked(&r, st, hbuf, stop)
				stop[buf[k]] = false
				if !hit || !slices.Equal(hbuf, buf[:k]) {
					t.Fatalf("%s id %d: stop at %d: hit %v after %v, set %v", tc.name, id, buf[k], hit, hbuf, buf)
				}
				requireVisitedClear(t, tc.name+" HitsMarked past the root", st)
				if k < len(buf)-1 {
					pastCut++
				}
			}
		}
		if pastCut < 50 {
			t.Fatalf("%s: %d hits with members after the hit", tc.name, pastCut)
		}
		t.Logf("%s: %d hits with members after the hit", tc.name, pastCut)
	}
}
