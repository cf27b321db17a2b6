package stopandstare_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stopandstare"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/ris"
)

// This file is the serving-layer differential harness: a warm Session —
// whose store, solver and plan persist across a randomized stream of
// queries — must return results bit-identical to cold Maximize runs at the
// same seed, for every store topology. Since RR set i
// is a pure function of (seed, i) and the stop-and-stare loops consume only
// schedule-derived sizes, warm reuse is not an approximation; this harness
// is what turns that claim into a tested invariant. MemoryBytes and Elapsed
// are exempt (a warm store is legitimately larger/faster).

type sessionQuery struct {
	algo stopandstare.Algorithm
	k    int
	eps  float64
}

// randomQuerySequence draws a deterministic mixed workload: repeated
// queries, k refinements, ε tightenings, and algorithm switches.
func randomQuerySequence(seed int64, n int) []sessionQuery {
	r := rand.New(rand.NewSource(seed))
	algos := []stopandstare.Algorithm{stopandstare.DSSA, stopandstare.SSA}
	epss := []float64{0.4, 0.3, 0.25}
	qs := make([]sessionQuery, n)
	for i := range qs {
		qs[i] = sessionQuery{
			algo: algos[r.Intn(len(algos))],
			k:    2 + r.Intn(9),
			eps:  epss[r.Intn(len(epss))],
		}
		if i > 0 && r.Intn(3) == 0 {
			qs[i] = qs[i-1] // force exact repeats into the stream
		}
	}
	return qs
}

func assertSameResult(t *testing.T, ctx string, warm, cold *stopandstare.Result,
	warmTrace, coldTrace []stopandstare.Checkpoint) {
	t.Helper()
	if !slices.Equal(warm.Seeds, cold.Seeds) {
		t.Fatalf("%s: Seeds %v vs cold %v", ctx, warm.Seeds, cold.Seeds)
	}
	if warm.InfluenceEstimate != cold.InfluenceEstimate {
		t.Fatalf("%s: Influence %v vs cold %v", ctx, warm.InfluenceEstimate, cold.InfluenceEstimate)
	}
	if warm.Samples != cold.Samples || warm.Iterations != cold.Iterations || warm.HitCap != cold.HitCap {
		t.Fatalf("%s: samples/iter/hitcap %d/%d/%v vs cold %d/%d/%v", ctx,
			warm.Samples, warm.Iterations, warm.HitCap,
			cold.Samples, cold.Iterations, cold.HitCap)
	}
	if cold.Warm {
		t.Fatalf("%s: one-shot Maximize reported Warm", ctx)
	}
	if len(warmTrace) != len(coldTrace) {
		t.Fatalf("%s: %d checkpoints vs cold %d", ctx, len(warmTrace), len(coldTrace))
	}
	for i := range coldTrace {
		if warmTrace[i] != coldTrace[i] {
			t.Fatalf("%s: checkpoint %d differs:\nwarm %+v\ncold %+v", ctx, i, warmTrace[i], coldTrace[i])
		}
	}
}

// TestSessionDifferentialWarmVsCold runs a randomized query sequence on a
// warm session, comparing every query against a cold Maximize run with
// identical parameters.
func TestSessionDifferentialWarmVsCold(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(220, 1400, 2.1, 99)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 71
	sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{
		Seed: seed, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range randomQuerySequence(5, 8) {
		ctx := fmt.Sprintf("q%d(%s,k=%d,eps=%v)", qi, q.algo, q.k, q.eps)
		var warmTrace []stopandstare.Checkpoint
		warm, err := sess.Maximize(stopandstare.Query{
			Algorithm: q.algo, K: q.k, Epsilon: q.eps,
			OnCheckpoint: func(cp stopandstare.Checkpoint) { warmTrace = append(warmTrace, cp) },
		})
		if err != nil {
			t.Fatalf("%s: warm: %v", ctx, err)
		}
		var coldTrace []stopandstare.Checkpoint
		cold, err := stopandstare.Maximize(g, stopandstare.IC, q.algo, stopandstare.Options{
			K: q.k, Epsilon: q.eps, Seed: seed, Workers: 2,
			OnCheckpoint: func(cp stopandstare.Checkpoint) { coldTrace = append(coldTrace, cp) },
		})
		if err != nil {
			t.Fatalf("%s: cold: %v", ctx, err)
		}
		assertSameResult(t, ctx, warm, cold, warmTrace, coldTrace)
	}
}

// TestSessionDifferentialWeighted runs the same warm-vs-cold check for a
// weighted (TVM) session against MaximizeTargeted.
func TestSessionDifferentialWeighted(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(220, 1400, 2.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.NumNodes())
	for v := range weights {
		weights[v] = float64(v%7) + 0.5
	}
	const seed = 13
	sess, err := stopandstare.NewSession(g, stopandstare.LT, stopandstare.SessionOptions{
		Seed: seed, Workers: 2, Weights: weights,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Gamma() <= 0 {
		t.Fatal("weighted session must report Gamma > 0")
	}
	for qi, q := range randomQuerySequence(7, 6) {
		ctx := fmt.Sprintf("weighted/q%d(%s,k=%d,eps=%v)", qi, q.algo, q.k, q.eps)
		warm, err := sess.Maximize(stopandstare.Query{Algorithm: q.algo, K: q.k, Epsilon: q.eps})
		if err != nil {
			t.Fatalf("%s: warm: %v", ctx, err)
		}
		cold, err := stopandstare.MaximizeTargeted(g, stopandstare.LT, weights, q.algo,
			stopandstare.Options{K: q.k, Epsilon: q.eps, Seed: seed, Workers: 2})
		if err != nil {
			t.Fatalf("%s: cold: %v", ctx, err)
		}
		if !slices.Equal(warm.Seeds, cold.Seeds) || warm.InfluenceEstimate != cold.BenefitEstimate ||
			warm.Samples != cold.Samples {
			t.Fatalf("%s: warm %v/%v/%d vs cold %v/%v/%d", ctx,
				warm.Seeds, warm.InfluenceEstimate, warm.Samples,
				cold.Seeds, cold.BenefitEstimate, cold.Samples)
		}
	}
}

// TestSessionDifferentialKSweeps is the cross-k caching contract: one
// session answers an ascending, a descending and a shuffled sweep of k at
// ε ∈ {0.1, 0.2} under both algorithms — so greedy runs are resumed upward,
// copied from downward, and shared between SSA and D-SSA and between k whose
// checkpoints coincide — and every answer equals, field for field and
// checkpoint for checkpoint, the cold Maximize at the same parameters.
func TestSessionDifferentialKSweeps(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(220, 1400, 2.1, 99)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 71
	sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{Seed: seed, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	type coldAnswer struct {
		res   *stopandstare.Result
		trace []stopandstare.Checkpoint
	}
	colds := map[sessionQuery]coldAnswer{}
	up := []int{1, 2, 3, 5, 8, 13, 21, 34}
	down := slices.Clone(up)
	slices.Reverse(down)
	shuffled := slices.Clone(up)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for oi, order := range [][]int{up, down, shuffled} {
		for _, eps := range []float64{0.1, 0.2} {
			for _, algo := range []stopandstare.Algorithm{stopandstare.SSA, stopandstare.DSSA} {
				for _, k := range order {
					q := sessionQuery{algo, k, eps}
					ctx := fmt.Sprintf("order %d/%s/k=%d/eps=%v", oi, algo, k, eps)
					var warmTrace []stopandstare.Checkpoint
					warm, err := sess.Maximize(stopandstare.Query{Algorithm: algo, K: k, Epsilon: eps,
						OnCheckpoint: func(cp stopandstare.Checkpoint) { warmTrace = append(warmTrace, cp) }})
					if err != nil {
						t.Fatalf("%s: warm: %v", ctx, err)
					}
					cold, ok := colds[q]
					if !ok {
						cold.res, err = stopandstare.Maximize(g, stopandstare.IC, algo, stopandstare.Options{
							K: k, Epsilon: eps, Seed: seed, Workers: 2,
							OnCheckpoint: func(cp stopandstare.Checkpoint) { cold.trace = append(cold.trace, cp) }})
						if err != nil {
							t.Fatalf("%s: cold: %v", ctx, err)
						}
						colds[q] = cold
					}
					assertSameResult(t, ctx, warm, cold.res, warmTrace, cold.trace)
				}
			}
		}
	}
}

// TestSessionSolverCacheBounded: the solver retains at most 32 greedy runs,
// so an ε-sweeping (or adversarial HTTP) query stream — every ε has its own
// checkpoint prefixes — cannot grow per-session memory without bound, and a
// query whose runs were evicted still returns its exact cold-run result.
func TestSessionSolverCacheBounded(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(300, 1500, 2.1, 77)
	if err != nil {
		t.Fatal(err)
	}
	const seed, runLimit = 31, 32
	sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{Seed: seed, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	prefixes := 0
	var bytesAtLimit int64
	for i := 0; i <= 24; i++ { // ε = 0.40, 0.39, …: a few new prefixes each
		q := stopandstare.Query{K: 3, Epsilon: 0.4 - 0.01*float64(i)}
		res, err := sess.Maximize(q)
		if err != nil {
			t.Fatal(err)
		}
		prefixes += res.Iterations
		st := sess.Stats()
		if st.Solvers > runLimit || st.Solvers != min(prefixes, runLimit) {
			t.Fatalf("ε=%v: %d runs retained after %d distinct prefixes, limit %d",
				q.Epsilon, st.Solvers, prefixes, runLimit)
		}
		if st.Solvers == runLimit && bytesAtLimit == 0 {
			bytesAtLimit = st.SolverBytes
		}
	}
	if prefixes <= 2*runLimit {
		t.Fatalf("the sweep made only %d prefixes; it must pass the limit of %d well", prefixes, runLimit)
	}
	// Later runs cover longer prefixes, so the footprint may rise, but by
	// bitsets and heaps, not by whole runs.
	if st := sess.Stats(); st.SolverBytes <= 0 || st.SolverBytes > 2*bytesAtLimit {
		t.Fatalf("SolverBytes %d after the sweep, %d when the limit was reached", st.SolverBytes, bytesAtLimit)
	}
	again, err := sess.Maximize(stopandstare.Query{K: 3, Epsilon: 0.4}) // its runs are long evicted
	if err != nil {
		t.Fatal(err)
	}
	cold, err := stopandstare.Maximize(g, stopandstare.IC, stopandstare.DSSA,
		stopandstare.Options{K: 3, Epsilon: 0.4, Seed: seed, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again.Seeds, cold.Seeds) || again.Samples != cold.Samples ||
		again.InfluenceEstimate != cold.InfluenceEstimate || again.Iterations != cold.Iterations {
		t.Fatalf("evicted-prefix requery drifted: %v/%d/%v vs cold %v/%d/%v",
			again.Seeds, again.Samples, again.InfluenceEstimate,
			cold.Seeds, cold.Samples, cold.InfluenceEstimate)
	}
}

// TestSessionWarmQueryAllocations is the serving-side allocation guard,
// counted rather than timed so CI can hold it: a warm repeated query copies
// its seeds out of retained greedy runs — one slice per checkpoint plus the
// result structs — and allocates nothing that scales with the graph. (Before
// runs were cached, every warm query built a solver: three O(n) arrays, a
// heap grown by append and fresh covered marks per checkpoint; 26 allocations
// at n = 300, 39 at n = 30 000.) The slack of 8 covers the result and the
// environment. Under -race it is skipped: the race detector drops sync.Pool
// items at random, so the count is not exact (CI runs the allocation guards
// in a step of their own, without -race).
func TestSessionWarmQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	for _, n := range []int{300, 30000} {
		g, err := stopandstare.GeneratePowerLaw(n, int64(6*n), 2.1, 5)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkpoints := 0
		allocs := testing.AllocsPerRun(20, func() { // its warm-up call is the cold query
			res, err := sess.Maximize(stopandstare.Query{K: 20, Epsilon: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			checkpoints = res.Iterations
		})
		if allocs > float64(checkpoints+8) {
			t.Fatalf("n=%d: a warm repeated query made %.0f allocations over %d checkpoints, want ≤ %d",
				n, allocs, checkpoints, checkpoints+8)
		}
	}
}

// TestSessionWarmSSAQueryAllocations is the SSA twin of the guard above. A
// warm SSA query answers Estimate-Inf from the session's verification
// store: the estimator is one allocation and the window bitsets come from
// a pool, so nothing is allocated per checkpoint or per verification set
// (measured: 5 allocations over 2 checkpoints at n = 300, 6 over 3 at
// n = 30 000). c = 10 is the ceiling from when every query walked fresh
// verification sets and allocated their scratch — the visited set, the
// seed marks and the walk queue — once per run (14 and 17 allocations).
// Skipped under -race, as its twin is.
func TestSessionWarmSSAQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	for _, n := range []int{300, 30000} {
		g, err := stopandstare.GeneratePowerLaw(n, int64(6*n), 2.1, 5)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		q := stopandstare.Query{Algorithm: stopandstare.SSA, K: 20, Epsilon: 0.3}
		checkpoints := 0
		allocs := testing.AllocsPerRun(20, func() {
			res, err := sess.Maximize(q)
			if err != nil {
				t.Fatal(err)
			}
			checkpoints = res.Iterations
		})
		const c = 10
		if ceiling := checkpoints + c + 8; allocs > float64(ceiling) {
			t.Fatalf("n=%d: a warm SSA query made %.0f allocations over %d checkpoints, want ≤ %d",
				n, allocs, checkpoints, ceiling)
		}
		t.Logf("n=%d: %.0f allocations, %d checkpoints", n, allocs, checkpoints)
	}
}

// TestSessionPlanCompiledOnce pins the acceptance invariant: any number of
// sessions, samplers and one-shot runs on one (graph, model) compile the
// sampling plan exactly once, into the graph. A probe sampler observes it:
// its non-forcing PlanBytes shows whether the graph holds a plan, and its
// Plan pointer which one.
func TestSessionPlanCompiledOnce(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(300, 1500, 2.1, 123)
	if err != nil {
		t.Fatal(err)
	}
	// graphPlan returns the plan g holds for model, nil if none is compiled.
	graphPlan := func(model stopandstare.Model) *ris.Plan {
		s, err := ris.NewSampler(g, model)
		if err != nil {
			t.Fatal(err)
		}
		if s.PlanBytes() == 0 {
			return nil
		}
		p, err := s.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if graphPlan(stopandstare.IC) != nil {
		t.Fatal("fresh graph already holds a compiled plan")
	}
	var first *ris.Plan
	for i := 0; i < 3; i++ {
		sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{
			Seed: uint64(i), Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Maximize(stopandstare.Query{K: 4, Epsilon: 0.4}); err != nil {
			t.Fatal(err)
		}
		p := graphPlan(stopandstare.IC)
		if p == nil || (first != nil && p != first) {
			t.Fatalf("session %d: graph plan %p, want the first session's %p", i, p, first)
		}
		first = p
	}
	// One-shot runs and a certificate on the same graph join the sharing.
	if _, err := stopandstare.Maximize(g, stopandstare.IC, stopandstare.DSSA,
		stopandstare.Options{K: 3, Epsilon: 0.4, Seed: 9, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := stopandstare.CertifySpread(g, stopandstare.IC, []uint32{1, 2}, 0.3, 0.1, 3); err != nil {
		t.Fatal(err)
	}
	if graphPlan(stopandstare.IC) != first {
		t.Fatal("a one-shot run or the certificate compiled the IC plan again")
	}
	// The LT plan is a separate slot, also compiled once.
	if graphPlan(stopandstare.LT) != nil {
		t.Fatal("IC queries compiled an LT plan")
	}
	var lt *ris.Plan
	for i := 0; i < 2; i++ {
		if _, err := stopandstare.Maximize(g, stopandstare.LT, stopandstare.DSSA,
			stopandstare.Options{K: 3, Epsilon: 0.4, Seed: uint64(9 + i), Workers: 2}); err != nil {
			t.Fatal(err)
		}
		p := graphPlan(stopandstare.LT)
		if p == nil || (lt != nil && p != lt) {
			t.Fatalf("LT run %d: graph plan %p, want the first run's %p", i, p, lt)
		}
		lt = p
	}
	if lt == first {
		t.Fatal("IC and LT share one plan")
	}
}

// TestSessionAccounting pins the memory-accounting satellite: a run's
// MemoryBytes includes the compiled plan, and Session.Stats reports
// plan and store bytes separately (summing back to the store's total).
func TestSessionAccounting(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(300, 1500, 2.1, 321)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Maximize(stopandstare.Query{K: 5, Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	plan := probe.PlanBytes() // non-forcing: the plan the run compiled
	if plan <= 0 {
		t.Fatal("run left no compiled plan on the graph")
	}
	if res.MemoryBytes < plan {
		t.Fatalf("Result.MemoryBytes %d excludes the plan (%d bytes)", res.MemoryBytes, plan)
	}
	st := sess.Stats()
	if st.PlanBytes != plan {
		t.Fatalf("Stats.PlanBytes %d != cached plan bytes %d", st.PlanBytes, plan)
	}
	// One D-SSA query leaves one greedy run per checkpoint; their arrays
	// and the gain counts (4 B per node) are reported, outside StoreBytes.
	if st.StoreBytes <= 0 || st.Queries != 1 || st.Samples <= 0 ||
		st.Solvers != res.Iterations || st.SolverBytes <= 4*int64(g.NumNodes()) {
		t.Fatalf("stats snapshot off: %+v", st)
	}
	if got := st.StoreBytes + st.PlanBytes; got != res.MemoryBytes {
		t.Fatalf("StoreBytes+PlanBytes = %d, want store total %d", got, res.MemoryBytes)
	}
}
