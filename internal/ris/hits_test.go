package ris

import (
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

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

// TestVisitedBitsClearAfterWalk checks that both walk paths clear the
// lanes' visited bitsets: the chunk path on IC, LT and WRIS plans, whose LT
// lanes interleave, and AppendSample.
func TestVisitedBitsClearAfterWalk(t *testing.T) {
	wc, err := gen.ChungLu(2000, 12000, 2.1, 5, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := gen.ChungLu(2000, 12000, 2.1, 5, graph.BuildOptions{Model: graph.Trivalency, TrivalencySeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, wc.NumNodes())
	wr := rng.New(17)
	for v := range weights {
		weights[v] = wr.Float64()
	}
	wris, err := NewWeightedSampler(wc, diffusion.IC, weights)
	if err != nil {
		t.Fatal(err)
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
		var buf []uint32
		for id := uint64(0); id < 2000; id++ {
			r.SeedStream(9, id)
			buf, _ = tc.s.AppendSample(&r, st, buf[:0])
			requireVisitedClear(t, tc.name+" AppendSample", st)
		}
	}
}
