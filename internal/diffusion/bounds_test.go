package diffusion

import (
	"testing"
	"testing/quick"

	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

func TestSpreadBoundedByN(t *testing.T) {
	g, err := gen.ChungLu(400, 2400, 2.1, 233, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch(400)
	f := func(seedRaw uint16, trial uint16) bool {
		s := uint32(seedRaw) % 400
		r := rng.NewStream(239, uint64(trial))
		ic := Simulate(g, IC, []uint32{s}, nil, r, sc)
		lt := Simulate(g, LT, []uint32{s}, nil, r, sc)
		return ic >= 1 && ic <= 400 && lt >= 1 && lt <= 400
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedSpreadBoundedByGamma(t *testing.T) {
	g, err := gen.ChungLu(300, 1800, 2.1, 241, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 300)
	gamma := 0.0
	r0 := rng.New(251)
	for i := range w {
		if r0.Float64() < 0.2 {
			w[i] = float64(r0.Intn(10) + 1)
			gamma += w[i]
		}
	}
	sc := NewScratch(300)
	f := func(seedRaw uint16, trial uint16) bool {
		s := uint32(seedRaw) % 300
		r := rng.NewStream(257, uint64(trial))
		b := Simulate(g, LT, []uint32{s}, w, r, sc)
		return b >= 0 && b <= gamma+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestICSubsetSpreadDominance(t *testing.T) {
	// Within a single possible world, supersets activate supersets; in
	// expectation the same holds — check with common random numbers.
	g, err := gen.ChungLu(200, 1200, 2.2, 263, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	base := []uint32{3, 17}
	super := []uint32{3, 17, 42, 99}
	mB, _, _ := Spread(g, IC, base, SpreadOptions{Runs: 8000, Seed: 269})
	mS, _, _ := Spread(g, IC, super, SpreadOptions{Runs: 8000, Seed: 269})
	if mS < mB {
		t.Fatalf("superset spread %.2f below subset %.2f", mS, mB)
	}
}
