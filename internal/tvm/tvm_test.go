package tvm

import (
	"math"
	"testing"

	"stopandstare/internal/baselines"
	"stopandstare/internal/core"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

func topicInstance(t testing.TB, n int, m int64, seed uint64) *Instance {
	t.Helper()
	g, err := gen.ChungLu(n, m, 2.1, seed, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	topic, err := gen.GenerateTopic(g, gen.TopicSpec{Name: "t", Keywords: []string{"x"}, Fraction: 0.1, ZipfS: 1.5}, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(g, topic.Weights)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// runSSA and runDSSA run the stop-and-stare loops on the instance's WRIS
// stream with OPT lower-bounded by the top-k benefit sum, as a weighted
// session does.
func runSSA(t *Instance, model diffusion.Model, opt core.Options) (*core.Result, error) {
	s, err := t.Sampler(model)
	if err != nil {
		return nil, err
	}
	opt.OptLowerBound = t.OptLowerBound(opt.K)
	return core.SSA(s, opt)
}

func runDSSA(t *Instance, model diffusion.Model, opt core.Options) (*core.Result, error) {
	s, err := t.Sampler(model)
	if err != nil {
		return nil, err
	}
	opt.OptLowerBound = t.OptLowerBound(opt.K)
	return core.DSSA(s, opt)
}

func TestNewInstanceValidation(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 250, 1, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInstance(nil, []float64{1}); err == nil {
		t.Fatal("nil graph should fail")
	}
	if _, err := NewInstance(g, []float64{1, 2}); err == nil {
		t.Fatal("short weights should fail")
	}
	neg := make([]float64, 50)
	neg[3] = -1
	if _, err := NewInstance(g, neg); err == nil {
		t.Fatal("negative weight should fail")
	}
	if _, err := NewInstance(g, make([]float64, 50)); err == nil {
		t.Fatal("all-zero weights should fail")
	}
	w := make([]float64, 50)
	w[0], w[7] = 2, 3
	inst, err := NewInstance(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Gamma != 5 || inst.Users != 2 {
		t.Fatalf("Gamma=%v Users=%d", inst.Gamma, inst.Users)
	}
}

func TestOptLowerBound(t *testing.T) {
	g, err := gen.ErdosRenyi(10, 40, 3, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 10)
	w[0], w[1], w[2] = 5, 3, 1
	inst, err := NewInstance(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if lb := inst.OptLowerBound(2); lb != 8 {
		t.Fatalf("top-2 sum %v want 8", lb)
	}
	if lb := inst.OptLowerBound(100); lb != 9 {
		t.Fatalf("top-all sum %v want 9", lb)
	}
}

func TestTVMSSAAndDSSA(t *testing.T) {
	inst := topicInstance(t, 1500, 7500, 5)
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		ssa, err := runSSA(inst, model, core.Options{K: 10, Epsilon: 0.2, Seed: 7, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		dssa, err := runDSSA(inst, model, core.Options{K: 10, Epsilon: 0.2, Seed: 7, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*core.Result{ssa, dssa} {
			if len(res.Seeds) != 10 {
				t.Fatalf("%v: %d seeds", model, len(res.Seeds))
			}
			if res.Influence <= 0 || res.Influence > inst.Gamma {
				t.Fatalf("%v: benefit estimate %v outside (0, Γ=%v]", model, res.Influence, inst.Gamma)
			}
		}
	}
}

func TestTVMBenefitEstimateMatchesMC(t *testing.T) {
	inst := topicInstance(t, 1500, 7500, 11)
	res, err := runDSSA(inst, diffusion.LT, core.Options{K: 10, Epsilon: 0.1, Seed: 13, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mc, se, err := inst.Benefit(diffusion.LT, res.Seeds, 30000, 17, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Influence-mc) > 0.15*mc+5*se {
		t.Fatalf("benefit estimate %.2f vs MC %.2f±%.2f", res.Influence, mc, se)
	}
}

func TestTVMBeatsUntargetedIM(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-algorithm TVM comparison is slow; skipped in -short")
	}
	// Optimising for the targeted group must collect at least as much
	// benefit as optimising plain influence with the same budget.
	inst := topicInstance(t, 2000, 10000, 19)
	k := 10
	tvmRes, err := runDSSA(inst, diffusion.LT, core.Options{K: k, Epsilon: 0.15, Seed: 23, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	imSampler, err := (&Instance{G: inst.G, Weights: uniformWeights(inst.G.NumNodes()), Gamma: float64(inst.G.NumNodes())}).Sampler(diffusion.LT)
	if err != nil {
		t.Fatal(err)
	}
	imRes, err := core.DSSA(imSampler, core.Options{K: k, Epsilon: 0.15, Seed: 23, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bTVM, _, _ := inst.Benefit(diffusion.LT, tvmRes.Seeds, 20000, 29, 2)
	bIM, _, _ := inst.Benefit(diffusion.LT, imRes.Seeds, 20000, 29, 2)
	if bTVM < 0.9*bIM {
		t.Fatalf("targeted optimisation (%.2f) clearly worse than untargeted (%.2f)", bTVM, bIM)
	}
}

func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestKBTIM(t *testing.T) {
	inst := topicInstance(t, 1500, 7500, 31)
	res, err := KBTIM(inst, diffusion.LT, baselines.Options{K: 10, Epsilon: 0.2, Seed: 37, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 10 || res.Influence <= 0 {
		t.Fatalf("KB-TIM degenerate result: %d seeds, influence %v", len(res.Seeds), res.Influence)
	}
}

func TestStopAndStareFewerSamplesThanKBTIM(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 8 sample-count comparison is slow; skipped in -short")
	}
	// Fig. 8 shape: SSA/D-SSA beat KB-TIM on the TVM problem.
	inst := topicInstance(t, 3000, 15000, 41)
	kb, err := KBTIM(inst, diffusion.LT, baselines.Options{K: 20, Epsilon: 0.1, Seed: 43, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dssa, err := runDSSA(inst, diffusion.LT, core.Options{K: 20, Epsilon: 0.1, Seed: 43, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dssa.TotalSamples >= kb.TotalSamples {
		t.Fatalf("D-SSA (%d RR sets) should beat KB-TIM (%d)", dssa.TotalSamples, kb.TotalSamples)
	}
	// Comparable quality.
	bd, _, _ := inst.Benefit(diffusion.LT, dssa.Seeds, 20000, 47, 2)
	bk, _, _ := inst.Benefit(diffusion.LT, kb.Seeds, 20000, 47, 2)
	if bd < 0.85*bk {
		t.Fatalf("D-SSA benefit %.2f too far below KB-TIM %.2f", bd, bk)
	}
}

func TestTVMGuaranteeOnTinyInstance(t *testing.T) {
	// Exhaustive check on a tiny weighted instance: returned benefit ≥
	// (1−1/e−ε)·OPT where OPT enumerated exactly via weighted MC with a
	// deterministic high-run budget.
	g, err := graph.FromEdges(8, []graph.Edge{
		{U: 0, V: 1, W: 0.8}, {U: 1, V: 2, W: 0.6}, {U: 3, V: 4, W: 0.9},
		{U: 4, V: 5, W: 0.5}, {U: 6, V: 7, W: 0.7}, {U: 0, V: 3, W: 0.3},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0, 1, 4, 0, 2, 3, 0, 5}
	inst, err := NewInstance(g, w)
	if err != nil {
		t.Fatal(err)
	}
	k, eps := 2, 0.25
	// Exhaustive OPT by exact computation over all pairs: use weighted MC
	// with many runs as ground truth (graph is tiny, variance small).
	best := 0.0
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			v, _, _ := inst.Benefit(diffusion.IC, []uint32{uint32(a), uint32(b)}, 60000, 51, 2)
			if v > best {
				best = v
			}
		}
	}
	res, err := runDSSA(inst, diffusion.IC, core.Options{K: k, Epsilon: eps, Delta: 0.05, Seed: 53, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := inst.Benefit(diffusion.IC, res.Seeds, 60000, 51, 2)
	bound := (1 - 1/math.E - eps) * best
	if got < bound {
		t.Fatalf("TVM benefit %.3f below bound %.3f (OPT %.3f)", got, bound, best)
	}
}
