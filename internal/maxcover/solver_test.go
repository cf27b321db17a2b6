package maxcover

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
)

func assertSameResult(t *testing.T, ctx string, got, want Result) {
	t.Helper()
	if got.Upto != want.Upto || got.Coverage != want.Coverage {
		t.Fatalf("%s: got upto=%d cov=%d, want upto=%d cov=%d",
			ctx, got.Upto, got.Coverage, want.Upto, want.Coverage)
	}
	if len(got.Seeds) != len(want.Seeds) {
		t.Fatalf("%s: got %d seeds, want %d", ctx, len(got.Seeds), len(want.Seeds))
	}
	for i := range got.Seeds {
		if got.Seeds[i] != want.Seeds[i] {
			t.Fatalf("%s: seed %d differs: got %d want %d",
				ctx, i, got.Seeds[i], want.Seeds[i])
		}
	}
}

// TestSolverEquivalentToGreedyDoubling is the core incremental-solver
// contract: across an SSA-style doubling schedule, Solve over each prefix
// returns bit-identical Seeds and Coverage to a from-scratch Greedy over
// the same prefix, even though it only scanned the new suffix.
func TestSolverEquivalentToGreedyDoubling(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		col := buildCollection(t, 80, 500, 0, seed*29)
		for _, k := range []int{1, 4, 9} {
			sol := NewSolver(col)
			for _, upto := range []int{25, 50, 100, 200, 400, 800, 1600} {
				col.GenerateTo(upto)
				got := sol.Solve(upto, k)
				want := Greedy(col, upto, k)
				assertSameResult(t, "doubling", got, want)
				if sol.Scanned() != upto {
					t.Fatalf("scanned %d want %d", sol.Scanned(), upto)
				}
			}
		}
	}
}

// TestSolverEquivalentOnHalfPrefixes mirrors D-SSA's access pattern: the
// stream holds 2·half sets but the solve runs over the first half only.
func TestSolverEquivalentOnHalfPrefixes(t *testing.T) {
	col := buildCollection(t, 60, 350, 0, 77)
	sol := NewSolver(col)
	for _, half := range []int{30, 60, 120, 240, 480} {
		col.GenerateTo(2 * half)
		got := sol.Solve(half, 6)
		want := Greedy(col, half, 6)
		assertSameResult(t, "half-prefix", got, want)
	}
}

// TestSolverIrregularSchedule exercises non-power-of-two growth (TIM/IMM
// probe sizes are not powers of two) including repeated solves at the same
// prefix length and varying k between checkpoints.
func TestSolverIrregularSchedule(t *testing.T) {
	col := buildCollection(t, 50, 300, 0, 101)
	sol := NewSolver(col)
	ks := []int{3, 1, 7, 7, 2, 11}
	for i, next := range []int{17, 17, 61, 200, 203, 997} {
		col.GenerateTo(next)
		got := sol.Solve(next, ks[i])
		want := Greedy(col, next, ks[i])
		assertSameResult(t, "irregular", got, want)
	}
}

// TestSolverNonMonotonicFallsBack asserts a shrinking upto still returns
// the exact Greedy solution (the gain cursor moves backward) and leaves the
// solver usable.
func TestSolverNonMonotonicFallsBack(t *testing.T) {
	col := buildCollection(t, 40, 250, 600, 55)
	sol := NewSolver(col)
	full := sol.Solve(600, 5)
	assertSameResult(t, "full", full, Greedy(col, 600, 5))
	small := sol.Solve(100, 5)
	assertSameResult(t, "shrunk", small, Greedy(col, 100, 5))
	again := sol.Solve(600, 5)
	assertSameResult(t, "recovered", again, full)
}

// interleavedStores builds the same RR stream three ways — one shard, three
// shards, and one shard with everything spillable on disk — so the
// interleaving tests run over every read path a solver has.
func interleavedStores(t *testing.T, sets int) map[string]ris.Store {
	t.Helper()
	g, err := gen.ErdosRenyi(70, 420, 9, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]ris.Store{
		"shards=1": ris.NewStore(s, 5, ris.StoreOptions{Workers: 2}),
		"shards=3": ris.NewStore(s, 5, ris.StoreOptions{Workers: 2, Shards: 3}),
		"spilled": ris.NewStore(s, 5, ris.StoreOptions{Workers: 2,
			SpillBudgetBytes: 1, SpillDir: t.TempDir()}),
	}
	for _, st := range stores {
		st.GenerateTo(sets)
	}
	if !stores["spilled"].SpillStats().Enabled || stores["spilled"].SpillStats().SpilledBytes == 0 {
		t.Fatal("the spilled store spilled nothing")
	}
	return stores
}

// TestSolverInterleavedMatchesGreedy is the caching contract: ONE solver
// asked a random sequence of (upto, k) — prefixes going up, down and
// repeating, k growing and shrinking past the number of useful nodes —
// answers every call exactly as a fresh Greedy does, at run limits that make
// every other call an eviction (1: recycled arrays, the cursor seeking both
// ways), some (2) and none (32).
func TestSolverInterleavedMatchesGreedy(t *testing.T) {
	prefixes := []int{0, 3, 40, 41, 300, 520, 900}
	for name, col := range interleavedStores(t, 900) {
		for _, limit := range []int{1, 2, 32} {
			rng := rand.New(rand.NewSource(int64(limit)))
			sol := NewCachedSolver(col, limit)
			for i := 0; i < 120; i++ {
				upto := prefixes[rng.Intn(len(prefixes))]
				k := 1 + rng.Intn(12)
				if rng.Intn(4) == 0 {
					k = 1 + rng.Intn(col.NumNodes()+3) // into the padded tail, past n
				}
				ctx := fmt.Sprintf("%s limit=%d call %d (upto=%d k=%d)", name, limit, i, upto, k)
				assertSameResult(t, ctx, sol.Solve(upto, k), Greedy(col, upto, k))
				if runs, _ := sol.Retained(); runs > limit {
					t.Fatalf("%s: %d runs retained", ctx, runs)
				}
			}
		}
	}
}

// TestRunLayoutMatchesSerial pins the parallel construction of a new run
// to the serial one: with parallelMin lowered to 64, a solver on 2–4
// workers must leave the gain cursor, the new run's work array and its heap
// equal, element for element, to a one-worker solver's after every seek —
// forward, backward by subtraction, backward by recount, and one shorter
// than parallelMin — on graphs with fewer and more nodes than parallelMin,
// whose gains tie heavily (the heap layout decides between ties). The
// serial heap must equal the generic heapInit over the ascending
// candidates, and Solve sequences across prefixes and k must equal Greedy.
func TestRunLayoutMatchesSerial(t *testing.T) {
	defer func(old int) { parallelMin = old }(parallelMin)
	parallelMin = 64
	for _, n := range []int{40, 300} {
		// At most about ten sets per node, so that gains tie heavily.
		var ladder []int
		for _, upto := range []int{300, 1200, 2000, 1500, 200, 900, 940, 2000} {
			ladder = append(ladder, upto*n/300)
		}
		col := buildCollection(t, n, n/2, 2000*n/300, uint64(n))
		for workers := 1; workers <= 4; workers++ {
			serial, par := NewSolver(col), NewSolver(col)
			serial.workers, par.workers = 1, workers
			for _, upto := range ladder {
				ctx := fmt.Sprintf("n=%d workers=%d upto=%d", n, workers, upto)
				rs, rp := serial.acquire(upto), par.acquire(upto)
				if !slices.Equal(serial.gains, par.gains) {
					t.Fatalf("%s: gain cursors differ", ctx)
				}
				if !slices.Equal(rs.work, rp.work) {
					t.Fatalf("%s: work arrays differ", ctx)
				}
				if !slices.Equal(rs.h, rp.h) {
					t.Fatalf("%s: heaps differ", ctx)
				}
				var floyd []candidate
				for v, g := range rs.work {
					if g > 0 {
						floyd = append(floyd, candidate{node: uint32(v), gain: g})
					}
				}
				heapInit(floyd)
				if !slices.Equal(rs.h, floyd) {
					t.Fatalf("%s: the heap differs from the generic Floyd pass", ctx)
				}
				gains := map[int32]bool{}
				for _, c := range rs.h {
					gains[c.gain] = true
				}
				if ties := len(rs.h) - len(gains); 3*ties < len(rs.h) {
					t.Fatalf("%s: %d candidates over %d distinct gains: too few ties", ctx, len(rs.h), len(gains))
				}
				serial.release(rs)
				par.release(rp)
			}
			sol := NewCachedSolver(col, 3)
			sol.workers = workers
			for i, upto := range ladder {
				k := []int{1, 5, 12}[i%3]
				want := NewSolver(col)
				want.workers = 1
				ctx := fmt.Sprintf("n=%d workers=%d upto=%d k=%d", n, workers, upto, k)
				assertSameResult(t, ctx, sol.Solve(upto, k), want.Solve(upto, k))
				assertSameResult(t, ctx, sol.Solve(upto, k), Greedy(col, upto, k))
			}
		}
	}
}

// TestCandidateHeapMatchesGeneric runs the candidate heap's concrete
// sifts beside the generic heap on the same operations, gains tying
// heavily: the heaps must stay equal after the build and after every pop
// and push, so the concrete heap breaks ties as container/heap does.
func TestCandidateHeapMatchesGeneric(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 7, 100, 1000} {
		concrete := make([]candidate, n)
		for v := range concrete {
			concrete[v] = candidate{node: uint32(v), gain: int32(1 + rnd.Intn(4))}
		}
		generic := slices.Clone(concrete)
		heapify(concrete, 1)
		heapInit(generic)
		for op := 0; len(generic) > 0; op++ {
			if !slices.Equal(concrete, generic) {
				t.Fatalf("n=%d: heaps differ after %d operations", n, op)
			}
			if top := generic[0]; rnd.Intn(3) > 0 && top.gain > 1 {
				top.gain = int32(1 + rnd.Intn(int(top.gain)))
				popCandidate(&concrete)
				heapPop(&generic)
				pushCandidate(&concrete, top)
				heapPush(&generic, top)
			} else {
				popCandidate(&concrete)
				heapPop(&generic)
			}
		}
	}
}

// TestSolverSmallerKIsPrefix: the seeds for k are the first k seeds for any
// k′ > k on the same prefix, through the padded tail (a 3-set prefix has at
// most 3 useful nodes), whichever of the two is asked first.
func TestSolverSmallerKIsPrefix(t *testing.T) {
	for name, col := range interleavedStores(t, 400) {
		n := col.NumNodes()
		for _, upto := range []int{3, 400} {
			sol := NewCachedSolver(col, 4)
			full := sol.Solve(upto, n)
			for _, k := range []int{n - 1, 1, 2, 5, 30, 4} {
				got := sol.Solve(upto, k)
				if len(got.Seeds) != k {
					t.Fatalf("%s upto=%d k=%d: %d seeds", name, upto, k, len(got.Seeds))
				}
				for i, v := range got.Seeds {
					if v != full.Seeds[i] {
						t.Fatalf("%s upto=%d: seed %d of k=%d is %d, of k=%d is %d",
							name, upto, i, k, v, n, full.Seeds[i])
					}
				}
				if got.Coverage > full.Coverage {
					t.Fatalf("%s upto=%d k=%d: coverage %d above k=%d's %d",
						name, upto, k, got.Coverage, n, full.Coverage)
				}
			}
		}
	}
}

// TestSolverRetainedBytes pins the accounting Session.Stats reports: the
// gain counts alone before any solve, every retained run's arrays after, and
// no growth from answering again what a run already holds.
func TestSolverRetainedBytes(t *testing.T) {
	col := buildCollection(t, 80, 500, 600, 13)
	n := int64(col.NumNodes())
	sol := NewCachedSolver(col, 2)
	if runs, bytes := sol.Retained(); runs != 0 || bytes != 4*n {
		t.Fatalf("fresh solver: %d runs, %d bytes, want 0 and %d", runs, bytes, 4*n)
	}
	sol.Solve(600, 5)
	_, one := sol.Retained()
	// work + covered bitset + at least the 5 picks and their sums.
	if floor := 4*n + (4*n + 8*((600+63)/64) + 5*12); one < floor {
		t.Fatalf("one run: %d bytes, below its arrays' %d", one, floor)
	}
	sol.Solve(600, 3)
	if _, again := sol.Retained(); again != one {
		t.Fatalf("a cached answer moved the footprint %d → %d", one, again)
	}
	sol.Solve(300, 5)
	sol.Solve(100, 5) // evicts 600
	runs, two := sol.Retained()
	if runs != 2 || two <= 4*n || two >= 2*one {
		t.Fatalf("after eviction: %d runs, %d bytes (one run was %d)", runs, two, one)
	}
}

// TestSolverSeedsAreFreshSlices guards the retention contract: callers keep
// Result.Seeds across checkpoints (SSA reports the last candidate after the
// loop), so a later Solve must not clobber an earlier result.
func TestSolverSeedsAreFreshSlices(t *testing.T) {
	col := buildCollection(t, 50, 300, 0, 91)
	sol := NewSolver(col)
	col.GenerateTo(200)
	first := sol.Solve(200, 5)
	firstCopy := append([]uint32(nil), first.Seeds...)
	col.GenerateTo(800)
	_ = sol.Solve(800, 5)
	for i := range first.Seeds {
		if first.Seeds[i] != firstCopy[i] {
			t.Fatal("earlier Result.Seeds mutated by a later Solve")
		}
	}
}

// TestSolverPadding: when coverage saturates, padding must match Greedy's
// (lowest unused ids) and not leak pad marks into later solves.
func TestSolverPadding(t *testing.T) {
	col := buildCollection(t, 10, 30, 0, 21)
	sol := NewSolver(col)
	for _, next := range []int{5, 20, 80} {
		col.GenerateTo(next)
		got := sol.Solve(next, 9)
		want := Greedy(col, next, 9)
		assertSameResult(t, "padding", got, want)
	}
}

// TestSolverWeightedCollection runs the equivalence on a WRIS (weighted
// root) collection under the LT model, covering the second sampler family.
func TestSolverWeightedCollection(t *testing.T) {
	g, err := gen.ChungLu(120, 700, 2.1, 17, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, g.NumNodes())
	for i := range w {
		w[i] = float64(i%7) + 0.5
	}
	s, err := ris.NewWeightedSampler(g, diffusion.LT, w)
	if err != nil {
		t.Fatal(err)
	}
	col := ris.NewStore(s, 23, ris.StoreOptions{Workers: 3})
	sol := NewSolver(col)
	for _, next := range []int{40, 160, 640} {
		col.GenerateTo(next)
		got := sol.Solve(next, 8)
		want := Greedy(col, next, 8)
		assertSameResult(t, "wris", got, want)
	}
}

// checkpointSchedule is the doubling schedule shared by the two
// checkpoint-path benchmarks below.
var checkpointSchedule = []int{1000, 2000, 4000, 8000, 16000, 32000}

func buildBenchCollection(b *testing.B) ris.Store {
	b.Helper()
	col := buildCollection(b, 4000, 24000, 0, 3)
	col.GenerateTo(checkpointSchedule[len(checkpointSchedule)-1])
	return col
}

// BenchmarkCheckpointGreedyScratch is the pre-refactor checkpoint path:
// a from-scratch Greedy at every checkpoint of a doubling schedule.
func BenchmarkCheckpointGreedyScratch(b *testing.B) {
	col := buildBenchCollection(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, upto := range checkpointSchedule {
			Greedy(col, upto, 50)
		}
	}
}

// BenchmarkCheckpointGreedyIncremental is the same schedule through one
// incremental Solver: each checkpoint scans only the new stream suffix.
func BenchmarkCheckpointGreedyIncremental(b *testing.B) {
	col := buildBenchCollection(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := NewSolver(col)
		for _, upto := range checkpointSchedule {
			sol.Solve(upto, 50)
		}
	}
}

// BenchmarkSolverFirstVisit measures a first visit to a prefix, which builds
// a new run: each iteration takes a fresh cached solver and solves k = 5
// over a D-SSA prefix ladder — each prefix half of the store its checkpoint
// grew to — on a one-shard store over 2^18 nodes, grown by doubling.
// ns/run is the time per prefix.
func BenchmarkSolverFirstVisit(b *testing.B) {
	const n = 1 << 18
	g, err := gen.ErdosRenyi(n, 2*n, 3, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		b.Fatal(err)
	}
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		b.Fatal(err)
	}
	col := ris.NewStore(s, 7, ris.StoreOptions{})
	var ladder []int
	for half := 1 << 12; half <= 1<<17; half *= 2 {
		col.GenerateTo(2 * half)
		ladder = append(ladder, half)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := NewCachedSolver(col, len(ladder))
		for _, half := range ladder {
			sol.Solve(half, 5)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ladder)), "ns/run")
}
