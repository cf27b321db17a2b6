package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
	"stopandstare/internal/rng"
	"stopandstare/internal/stats"
)

// refEstimator is the Estimate-Inf loop before the early-exit walk, kept as
// the estimator's oracle: one full RR set per verification id, scanned for a
// seed, the stopping rule checked after every id.
type refEstimator struct {
	sampler *ris.Sampler
	seed    uint64
	nextID  uint64
	state   *ris.State
	mark    []bool
	buf     []uint32
	r       rng.Source
	total   int64
}

func newRefEstimator(s *ris.Sampler, seed uint64) *refEstimator {
	return &refEstimator{
		sampler: s,
		seed:    seed,
		state:   s.NewState(),
		mark:    make([]bool, s.Graph().NumNodes()),
	}
}

func (e *refEstimator) refEstimate(seeds []uint32, epsPrime, deltaPrime float64, tmax int64) (inf float64, used int64, ok bool) {
	lambda2 := stats.StoppingRuleThreshold(epsPrime, deltaPrime)
	for _, s := range seeds {
		e.mark[s] = true
	}
	defer func() {
		for _, s := range seeds {
			e.mark[s] = false
		}
	}()
	scale := e.sampler.Scale()
	cov := 0.0
	for t := int64(1); t <= tmax; t++ {
		ris.SeedVerifyStream(&e.r, e.seed, e.nextID)
		e.nextID++
		var setLen int
		e.buf, setLen, _ = e.sampler.AppendSample(&e.r, e.state, e.buf[:0])
		set := e.buf[len(e.buf)-setLen:]
		for _, v := range set {
			if e.mark[v] {
				cov++
				break
			}
		}
		if cov >= lambda2 {
			e.total += t
			return scale * lambda2 / float64(t), t, true
		}
	}
	e.total += tmax
	return -1, tmax, false
}

// estimatorSamplers returns one sampler per plan class the hit walk runs
// through: IC weighted cascade (uniform nodes), IC trivalency (general
// nodes), LT, and a WRIS sampler.
func estimatorSamplers(t testing.TB) []struct {
	name string
	s    *ris.Sampler
} {
	t.Helper()
	wc := midGraph(t, 2000, 12000, 71)
	tri, err := gen.ChungLu(2000, 12000, 2.1, 73, graph.BuildOptions{Model: graph.Trivalency, TrivalencySeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, wc.NumNodes())
	r := rng.New(79)
	for v := range weights {
		weights[v] = r.Float64()
	}
	wris, err := ris.NewWeightedSampler(wc, diffusion.IC, weights)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		s    *ris.Sampler
	}{
		{"IC-wc", sampler(t, wc, diffusion.IC)},
		{"IC-trivalency", sampler(t, tri, diffusion.IC)},
		{"LT", sampler(t, wc, diffusion.LT)},
		{"WRIS", wris},
	}
}

// estimateCall is one Estimate-Inf call of a differential case.
type estimateCall struct {
	seeds            []uint32
	eps, delta       float64
	tmax             int64
	wantOK, eitherOK bool // eitherOK: the case does not pin ok
}

// TestEstimatorMatchesSerialLoop is the estimator's differential test: the
// early-exit estimator returns the full-set loop's (inf, used, ok) and
// leaves the same total and nextID, call after call.
func TestEstimatorMatchesSerialLoop(t *testing.T) {
	big := []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	cases := []struct {
		name  string
		calls []estimateCall
	}{
		{"three calls", []estimateCall{
			{seeds: big, eps: 0.2, delta: 0.05, tmax: 1 << 40, wantOK: true},
			{seeds: []uint32{3, 40, 41}, eps: 0.3, delta: 0.1, tmax: 1 << 40, wantOK: true},
			{seeds: big[:5], eps: 0.15, delta: 0.01, tmax: 1 << 40, wantOK: true},
		}},
		{"hits tmax", []estimateCall{{seeds: []uint32{1999}, eps: 0.1, delta: 0.01, tmax: 3000}}},
		{"capped calls", []estimateCall{
			{seeds: big, eps: 0.3, delta: 0.1, tmax: 1553, eitherOK: true},
			{seeds: big, eps: 0.05, delta: 0.1, tmax: 2561},
		}},
		{"tmax 1", []estimateCall{
			{seeds: big, eps: 0.3, delta: 0.1, tmax: 1},
			{seeds: big, eps: 0.3, delta: 0.1, tmax: 1 << 40, wantOK: true},
		}},
	}
	for _, smp := range estimatorSamplers(t) {
		for _, tc := range cases {
			name := smp.name + "/" + tc.name
			ref := newRefEstimator(smp.s, 83)
			est := newEstimator(smp.s, 83)
			for i, c := range tc.calls {
				rInf, rUsed, rOK := ref.refEstimate(c.seeds, c.eps, c.delta, c.tmax)
				inf, used, ok := est.estimate(c.seeds, c.eps, c.delta, c.tmax)
				if inf != rInf || used != rUsed || ok != rOK {
					t.Fatalf("%s call %d: (inf, used, ok) = (%v, %d, %v), full-set loop (%v, %d, %v)",
						name, i, inf, used, ok, rInf, rUsed, rOK)
				}
				if est.total != ref.total || est.nextID != ref.nextID {
					t.Fatalf("%s call %d: total %d nextID %d, full-set loop %d %d",
						name, i, est.total, est.nextID, ref.total, ref.nextID)
				}
				if !c.eitherOK && ok != c.wantOK {
					t.Fatalf("%s call %d: ok = %v, the case wants %v", name, i, ok, c.wantOK)
				}
			}
		}
	}
}

// TestEstimatorScratchIndependentOfTmax pins the memory bound: a call whose
// cap is math.MaxInt64 allocates the walk's scratch, not anything in
// proportion to the cap, and a repeat call allocates nothing.
func TestEstimatorScratchIndependentOfTmax(t *testing.T) {
	s := sampler(t, midGraph(t, 2000, 12000, 89), diffusion.IC)
	seeds := []uint32{0, 1, 2, 3, 4}
	n := uint64(s.Graph().NumNodes())
	est := newEstimator(s, 97)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, ok := est.estimate(seeds, 0.2, 0.05, math.MaxInt64); !ok {
		t.Fatal("a reachable Λ₂ did not stop the rule")
	}
	runtime.ReadMemStats(&after)
	// The walk queue grows by doubling up to at most n entries of 4 B.
	if got, bound := after.TotalAlloc-before.TotalAlloc, 16*n+4<<10; got > bound {
		t.Fatalf("first call allocated %d B, want ≤ %d", got, bound)
	}
	allocs := testing.AllocsPerRun(5, func() {
		est.estimate(seeds, 0.2, 0.05, math.MaxInt64)
	})
	if allocs > 0 {
		t.Fatalf("a repeat call made %.0f allocations, want 0", allocs)
	}
}

// topOutDegree returns the k nodes of largest out-degree: a cheap stand-in
// for a selected seed set.
func topOutDegree(g *graph.Graph, k int) []uint32 {
	nodes := make([]uint32, g.NumNodes())
	for v := range nodes {
		nodes[v] = uint32(v)
	}
	sort.Slice(nodes, func(i, j int) bool { return g.OutDegree(nodes[i]) > g.OutDegree(nodes[j]) })
	return nodes[:k]
}

// BenchmarkEstimateInf compares the full-set loop (ref) with the early-exit
// estimator (hits) on one Estimate-Inf call at SSA's ε₂ for ε = 0.1.
// sets/op is the call's RR-set count, the same on both sides.
func BenchmarkEstimateInf(b *testing.B) {
	g := midGraph(b, 20000, 120000, 101)
	const eps2, delta = 0.079, 1e-6
	for _, model := range []diffusion.Model{diffusion.IC, diffusion.LT} {
		s := sampler(b, g, model)
		for _, k := range []int{10, 100} {
			seeds := topOutDegree(g, k)
			prefix := fmt.Sprintf("%v/k=%d/", model, k)
			b.Run(prefix+"ref", func(b *testing.B) {
				var used int64
				for i := 0; i < b.N; i++ {
					_, used, _ = newRefEstimator(s, uint64(i)).refEstimate(seeds, eps2, delta, 1<<40)
				}
				b.ReportMetric(float64(used), "sets/op")
			})
			b.Run(prefix+"hits", func(b *testing.B) {
				var used int64
				for i := 0; i < b.N; i++ {
					_, used, _ = newEstimator(s, uint64(i)).estimate(seeds, eps2, delta, 1<<40)
				}
				b.ReportMetric(float64(used), "sets/op")
			})
		}
	}
}
