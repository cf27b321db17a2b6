package stopandstare

import (
	"compress/gzip"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func testGraph(t testing.TB) *Graph {
	t.Helper()
	g, err := GeneratePowerLaw(2000, 12000, 2.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMaximizeAllAlgorithms(t *testing.T) {
	g := testGraph(t)
	small, err := GeneratePowerLaw(150, 800, 2.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms() {
		target := g
		opt := Options{K: 10, Epsilon: 0.2, Seed: 7, Workers: 2}
		if algo == CELF || algo == CELFPlusPlus {
			target = small // MC greedy needs a small instance
			opt.MCRuns = 300
		}
		if algo == Borgs {
			// The analysis constant 48 generates tens of millions of RR
			// sets even here — the paper's point about SODA'14 RIS.
			opt.BorgsC = 0.01
		}
		res, err := Maximize(target, LT, algo, opt)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Seeds) != 10 {
			t.Fatalf("%s: %d seeds", algo, len(res.Seeds))
		}
		seen := map[uint32]bool{}
		for _, s := range res.Seeds {
			if int(s) >= target.NumNodes() || seen[s] {
				t.Fatalf("%s: invalid/duplicate seed %d", algo, s)
			}
			seen[s] = true
		}
	}
}

func TestMaximizeErrors(t *testing.T) {
	g := testGraph(t)
	if _, err := Maximize(nil, LT, DSSA, Options{K: 1}); err == nil {
		t.Fatal("nil graph should fail")
	}
	if _, err := Maximize(g, LT, Algorithm("bogus"), Options{K: 1}); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if _, err := Maximize(g, LT, DSSA, Options{K: 0}); err == nil {
		t.Fatal("k=0 should fail")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(string(a))
		if err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("unknown name should fail")
	}
}

func TestDSSAQualityVsDegreeBaseline(t *testing.T) {
	g := testGraph(t)
	k := 20
	dssa, err := Maximize(g, IC, DSSA, Options{K: k, Epsilon: 0.1, Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	deg, err := Maximize(g, IC, Degree, Options{K: k, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sd, _, err := EvaluateSpread(g, IC, dssa.Seeds, 10000, 13, 2)
	if err != nil {
		t.Fatal(err)
	}
	sg, _, err := EvaluateSpread(g, IC, deg.Seeds, 10000, 13, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sd < 0.95*sg {
		t.Fatalf("D-SSA spread %.1f clearly below degree heuristic %.1f", sd, sg)
	}
}

func TestMaximizeTargetedEndToEnd(t *testing.T) {
	g := testGraph(t)
	topics, err := GenerateTopics(g, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(topics) != 2 {
		t.Fatalf("want 2 topics, got %d", len(topics))
	}
	tp := topics[0]
	for _, algo := range []Algorithm{DSSA, SSA, TIMPlus} {
		res, err := MaximizeTargeted(g, LT, tp.Weights, algo, Options{K: 10, Epsilon: 0.2, Seed: 19, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Seeds) != 10 || res.BenefitEstimate <= 0 || res.BenefitEstimate > res.Gamma {
			t.Fatalf("%s: degenerate TVM result %+v", algo, res)
		}
	}
	if _, err := MaximizeTargeted(g, LT, tp.Weights, Degree, Options{K: 10}); err == nil ||
		!strings.Contains(err.Error(), "does not support TVM") {
		t.Fatalf("degree TVM should be rejected, got %v", err)
	}
	benefit, se, err := EvaluateBenefit(g, LT, tp.Weights, []uint32{0, 1, 2}, 2000, 23, 2)
	if err != nil {
		t.Fatal(err)
	}
	if benefit < 0 || math.IsNaN(se) {
		t.Fatalf("EvaluateBenefit %v ± %v", benefit, se)
	}
}

func TestGraphAPIRoundTrip(t *testing.T) {
	b := NewGraphBuilder(4)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.5)
	b.AddUndirected(2, 3, 0.25)
	g, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	g2, err := NewGraph(3, []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}},
		BuildOptions{Model: WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g2.EdgeWeight(0, 1); w != 1 {
		t.Fatalf("WC weight %v", w)
	}
	if _, err := LoadGraph(strings.NewReader("0 1 0.5\n1 2 0.5\n"), LoadGraphOptions{Directed: true}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadGraphFileGzip: LoadGraphFile reads a SNAP-style .txt.gz archive
// as it reads the plain text.
func TestLoadGraphFileGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.txt.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write([]byte("# FromNodeId\tToNodeId\n0\t1\n1\t2\n2\t0\n7\t2\n")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraphFile(path, LoadGraphOptions{Directed: true, Relabel: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d, want 4/4", g.NumNodes(), g.NumEdges())
	}
}

func TestPresetNamesExposed(t *testing.T) {
	names := PresetNames()
	if len(names) != 8 {
		t.Fatalf("want 8 presets, got %d", len(names))
	}
	if names[0] != "nethept" {
		t.Fatalf("first preset %q", names[0])
	}
}

func TestGeneratorsExposed(t *testing.T) {
	if _, err := GenerateErdosRenyi(100, 400, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateBarabasiAlbert(100, 2, 1); err != nil {
		t.Fatal(err)
	}
	if g, err := GeneratePreset("nethept", 0.05, 1); err != nil || g.NumNodes() == 0 {
		t.Fatalf("preset: %v", err)
	}
	if _, err := GeneratePreset("bogus", 0.5, 1); err == nil {
		t.Fatal("unknown preset should fail")
	}
}

func TestParseModelExposed(t *testing.T) {
	m, err := ParseModel("IC")
	if err != nil || m != IC {
		t.Fatalf("ParseModel: %v %v", m, err)
	}
}

func TestDeterministicFacade(t *testing.T) {
	g := testGraph(t)
	a, err := Maximize(g, LT, DSSA, Options{K: 5, Epsilon: 0.2, Seed: 99, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Maximize(g, LT, DSSA, Options{K: 5, Epsilon: 0.2, Seed: 99, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatal("facade results differ across worker counts")
		}
	}
}

func TestMaximizeBudgetedFacade(t *testing.T) {
	g := testGraph(t)
	topics, err := GenerateTopics(g, 17)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, g.NumNodes())
	for v := range costs {
		costs[v] = float64(v%3) + 1
	}
	res, err := MaximizeBudgeted(g, LT, topics[0].Weights, BudgetedOptions{
		Budget: 15, Costs: costs, Epsilon: 0.3, Seed: 5, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 15+1e-9 || len(res.Seeds) == 0 || res.BenefitEstimate <= 0 {
		t.Fatalf("budgeted facade degenerate: %+v", res)
	}
	if _, err := MaximizeBudgeted(g, LT, topics[0].Weights, BudgetedOptions{Budget: -1}); err == nil {
		t.Fatal("negative budget should fail")
	}
}

func TestBorgsFacade(t *testing.T) {
	g, err := GeneratePowerLaw(500, 3000, 2.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Maximize(g, IC, Borgs, Options{K: 5, Epsilon: 0.3, Seed: 3, Workers: 2, BorgsC: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 || res.Samples <= 0 {
		t.Fatalf("borgs facade degenerate: %+v", res)
	}
}

func TestCertifySpreadFacade(t *testing.T) {
	g := testGraph(t)
	res, err := Maximize(g, IC, DSSA, Options{K: 5, Epsilon: 0.2, Seed: 21, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := CertifySpread(g, IC, res.Seeds, 0.1, 0.01, 23)
	if err != nil {
		t.Fatal(err)
	}
	mc, se, err := EvaluateSpread(g, IC, res.Seeds, 20000, 25, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cert.Influence-mc) > 0.12*mc+5*se {
		t.Fatalf("certificate %.2f vs MC %.2f±%.2f", cert.Influence, mc, se)
	}
	if _, err := CertifySpread(g, IC, nil, 0.1, 0.01, 1); err == nil {
		t.Fatal("empty seeds should fail")
	}
}

func TestRecommendedEpsilonSplitFacade(t *testing.T) {
	e1, e2, e3, ok := RecommendedEpsilonSplit(0.1, 59000)
	if !ok || e1 <= 0 || e2 <= 0 || e3 <= 0 {
		t.Fatalf("split failed: %v %v %v %v", e1, e2, e3, ok)
	}
	g := testGraph(t)
	res, err := Maximize(g, LT, SSA, Options{K: 5, Epsilon: 0.1, Seed: 31,
		Workers: 2, Eps1: e1, Eps2: e2, Eps3: e3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("%d seeds", len(res.Seeds))
	}
	if _, _, _, ok := RecommendedEpsilonSplit(0.9, 100); ok {
		t.Fatal("eps=0.9 should be rejected")
	}
}

func TestOnCheckpointFacade(t *testing.T) {
	g := testGraph(t)
	var count int
	res, err := Maximize(g, LT, DSSA, Options{K: 5, Epsilon: 0.2, Seed: 7, Workers: 2,
		OnCheckpoint: func(c Checkpoint) { count++ }})
	if err != nil {
		t.Fatal(err)
	}
	if count != res.Iterations || count == 0 {
		t.Fatalf("checkpoints %d, iterations %d", count, res.Iterations)
	}
}

// TestMaximizeTargetedForwardsStopAndStareOptions: the TVM SSA/D-SSA path
// is the one-shot weighted session, so OnCheckpoint fires and an explicit
// SSA ε-split gives exactly what a weighted Session query with that split
// gives.
func TestMaximizeTargetedForwardsStopAndStareOptions(t *testing.T) {
	g := testGraph(t)
	topics, err := GenerateTopics(g, 17)
	if err != nil {
		t.Fatal(err)
	}
	w := topics[0].Weights
	var count int
	if _, err := MaximizeTargeted(g, LT, w, DSSA, Options{K: 10, Epsilon: 0.2, Seed: 19, Workers: 2,
		OnCheckpoint: func(Checkpoint) { count++ }}); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("MaximizeTargeted(DSSA) reported no checkpoints")
	}
	e1, e2, e3, ok := RecommendedEpsilonSplit(0.2, 1<<30)
	if !ok {
		t.Fatal("no split")
	}
	got, err := MaximizeTargeted(g, LT, w, SSA, Options{K: 10, Epsilon: 0.2, Seed: 19, Workers: 2,
		Eps1: e1, Eps2: e2, Eps3: e3})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(g, LT, SessionOptions{Seed: 19, Workers: 2, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Maximize(Query{Algorithm: SSA, K: 10, Epsilon: 0.2, Eps1: e1, Eps2: e2, Eps3: e3})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Seeds, want.Seeds) || got.BenefitEstimate != want.InfluenceEstimate ||
		got.Samples != want.Samples {
		t.Fatalf("MaximizeTargeted %v/%v/%d vs session %v/%v/%d", got.Seeds, got.BenefitEstimate,
			got.Samples, want.Seeds, want.InfluenceEstimate, want.Samples)
	}
}

// TestSSAFewerSamplesThanIMMAndTIM is the headline shape of the paper:
// SSA/D-SSA ≪ IMM ≤ TIM+ in RR sets, at comparable influence.
func TestSSAFewerSamplesThanIMMAndTIM(t *testing.T) {
	g, err := GeneratePowerLaw(4000, 20000, 2.1, 17)
	if err != nil {
		t.Fatal(err)
	}
	res := map[Algorithm]*Result{}
	for _, algo := range []Algorithm{IMM, TIMPlus, DSSA, SSA} {
		if res[algo], err = Maximize(g, LT, algo, Options{K: 50, Epsilon: 0.1, Seed: 19, Workers: 2}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
	imm := res[IMM]
	for _, algo := range []Algorithm{DSSA, SSA} {
		if res[algo].Samples >= imm.Samples {
			t.Fatalf("%s (%d) should use fewer RR sets than IMM (%d)", algo, res[algo].Samples, imm.Samples)
		}
	}
	if imm.Samples > res[TIMPlus].Samples*4 {
		t.Fatalf("IMM (%d) and TIM+ (%d) should be within the same regime", imm.Samples, res[TIMPlus].Samples)
	}
	// All four must deliver comparable influence (within 10%).
	for algo, r := range res {
		if math.Abs(r.InfluenceEstimate-imm.InfluenceEstimate) > 0.1*imm.InfluenceEstimate {
			t.Fatalf("%s influence %.1f deviates from IMM %.1f", algo, r.InfluenceEstimate, imm.InfluenceEstimate)
		}
	}
}

// TestOneShotRecyclesSolverArrays is the one-shot allocation guard. A cold
// Maximize never returns to a prefix, so its session's solver keeps ONE
// greedy run and hands that run's arrays from checkpoint to checkpoint. A
// serving session's first query is the same cold run, but its solver
// retains every checkpoint's run and allocates each afresh; were the
// one-shot path to do that, it would show up in its peak memory. Counted,
// not timed, and against the serving twin in the same binary, so neither
// the toolchain nor the race detector moves it: every checkpoint after the
// first must save at least the run's O(n) arrays and heap.
func TestOneShotRecyclesSolverArrays(t *testing.T) {
	g, err := GeneratePowerLaw(3000, 15000, 2.1, 17)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Algorithm: DSSA, K: 5, Epsilon: 0.3}
	checkpoints := 0
	oneShot := testing.AllocsPerRun(5, func() {
		res, err := Maximize(g, IC, DSSA, Options{K: q.K, Epsilon: q.Epsilon, Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkpoints = res.Iterations
	})
	serving := testing.AllocsPerRun(5, func() {
		sess, err := NewSession(g, IC, SessionOptions{Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Maximize(q); err != nil {
			t.Fatal(err)
		}
	})
	if checkpoints < 3 {
		t.Fatalf("only %d checkpoints: the run is too short to show recycling", checkpoints)
	}
	if saved := serving - oneShot; saved < float64(4*(checkpoints-1)) {
		t.Fatalf("one-shot D-SSA: %.0f allocations, %.0f as a serving session's first query over %d checkpoints: saved %.0f, want ≥ %d",
			oneShot, serving, checkpoints, saved, 4*(checkpoints-1))
	}
	t.Logf("%.0f vs %.0f allocations over %d checkpoints", oneShot, serving, checkpoints)
}
