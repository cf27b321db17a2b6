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
		e.buf, setLen = e.sampler.AppendSample(&e.r, e.state, e.buf[:0])
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

// storeVerifier is the Verifier of a test: a store on the verification
// stream, grown on demand.
type storeVerifier struct {
	st    ris.Store
	words []uint64
}

func newStoreVerifier(s *ris.Sampler, seed uint64) *storeVerifier {
	return &storeVerifier{st: ris.NewStore(s.VerifySampler(), seed, ris.StoreOptions{Workers: 2})}
}

func (v *storeVerifier) VerifyStopIndex(seeds []uint32, from, to int, need int64) (int, int64, bool) {
	grew := v.st.Len() < to
	v.st.GenerateTo(to)
	id, cov := ris.StopIndex(v.st, &v.words, seeds, from, to, need)
	return id, cov, grew
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
// early-exit estimator and the retained one — on a fresh verification store,
// and on one every earlier case of the sampler has grown — return the
// full-set loop's (inf, used, ok) and leave the same total and nextID, call
// after call.
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
		warm := newStoreVerifier(smp.s, 83)
		for _, tc := range cases {
			ref := newRefEstimator(smp.s, 83)
			ests := []struct {
				leg string
				e   *estimator
			}{
				{"hits", newEstimator(smp.s, 83)},
				{"retained", newRetainedEstimator(smp.s, 83, newStoreVerifier(smp.s, 83))},
				{"retained-warm", newRetainedEstimator(smp.s, 83, warm)},
			}
			for i, c := range tc.calls {
				rInf, rUsed, rOK := ref.refEstimate(c.seeds, c.eps, c.delta, c.tmax)
				if !c.eitherOK && rOK != c.wantOK {
					t.Fatalf("%s/%s call %d: ok = %v, the case wants %v", smp.name, tc.name, i, rOK, c.wantOK)
				}
				for _, est := range ests {
					name := smp.name + "/" + tc.name + "/" + est.leg
					inf, used, ok := est.e.estimate(c.seeds, c.eps, c.delta, c.tmax)
					if inf != rInf || used != rUsed || ok != rOK {
						t.Fatalf("%s call %d: (inf, used, ok) = (%v, %d, %v), full-set loop (%v, %d, %v)",
							name, i, inf, used, ok, rInf, rUsed, rOK)
					}
					if est.e.total != ref.total || est.e.nextID != ref.nextID {
						t.Fatalf("%s call %d: total %d nextID %d, full-set loop %d %d",
							name, i, est.e.total, est.e.nextID, ref.total, ref.nextID)
					}
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

// TestRetainedEstimatorStoreTracksStopIndex is the retained estimator's
// memory bound: a call whose cap is math.MaxInt64 grows the verification
// store to about the stopping index — the windows are sized from the hits
// seen, not from the cap — and a repeat call, as the next SSA run of a
// session makes it, grows nothing and allocates nothing.
func TestRetainedEstimatorStoreTracksStopIndex(t *testing.T) {
	s := sampler(t, midGraph(t, 2000, 12000, 89), diffusion.IC)
	seeds := []uint32{0, 1, 2, 3, 4}
	v := newStoreVerifier(s, 97)
	est := newRetainedEstimator(s, 97, v)
	_, used, ok := est.estimate(seeds, 0.2, 0.05, math.MaxInt64)
	if !ok {
		t.Fatal("a reachable Λ₂ did not stop the rule")
	}
	grown := v.st.Len()
	if grown < int(used) || grown > 2*int(used) {
		t.Fatalf("store grew to %d sets for a rule that stopped at %d, want [%d, %d]", grown, used, used, 2*used)
	}
	if !est.grew {
		t.Fatal("a call that grew the store did not report it")
	}
	est.grew = false
	allocs := testing.AllocsPerRun(5, func() {
		est.nextID = 0
		if _, again, _ := est.estimate(seeds, 0.2, 0.05, math.MaxInt64); again != used {
			t.Fatalf("repeat call stopped at %d, first at %d", again, used)
		}
	})
	if allocs > 0 {
		t.Fatalf("a repeat call made %.0f allocations, want 0", allocs)
	}
	if v.st.Len() != grown || est.grew {
		t.Fatalf("a repeat call grew the store from %d to %d sets", grown, v.st.Len())
	}
	t.Logf("stopped at %d, store %d sets", used, grown)
}

// TestRetainedEstimatorWalksPastStoreLimit lowers the id range a store can
// hold: a call whose window reaches it finishes over fresh sets, and later
// calls start past it, with the serial loop's answers throughout.
func TestRetainedEstimatorWalksPastStoreLimit(t *testing.T) {
	defer func(old int64) { retainedIDs = old }(retainedIDs)
	retainedIDs = 1200
	s := sampler(t, midGraph(t, 2000, 12000, 91), diffusion.LT)
	seeds := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	ref := newRefEstimator(s, 5)
	v := newStoreVerifier(s, 5)
	est := newRetainedEstimator(s, 5, v)
	for i := 0; i < 4; i++ {
		rInf, rUsed, rOK := ref.refEstimate(seeds, 0.3, 0.1, 1<<40)
		inf, used, ok := est.estimate(seeds, 0.3, 0.1, 1<<40)
		if inf != rInf || used != rUsed || ok != rOK || est.nextID != ref.nextID || est.total != ref.total {
			t.Fatalf("call %d: (%v, %d, %v, next %d), full-set loop (%v, %d, %v, next %d)",
				i, inf, used, ok, est.nextID, rInf, rUsed, rOK, ref.nextID)
		}
	}
	if ref.nextID <= 1200 {
		t.Fatalf("the calls stopped at id %d and never crossed the store's limit", ref.nextID)
	}
	if v.st.Len() > 1200 {
		t.Fatalf("store grew to %d sets past its limit of 1200", v.st.Len())
	}
}

// FuzzRetainedEstimate checks the retained estimator against the one-id
// walk over a sequence of calls on a random small graph: IC or LT, plain or
// WRIS, with random seed sets, ε′, δ′ and caps. A second retained run over
// the store the first one grew must agree too.
func FuzzRetainedEstimate(f *testing.F) {
	f.Add(uint64(1), uint8(60), false, false, uint8(3), uint8(30), uint8(20), uint16(4000), uint8(3))
	f.Add(uint64(2), uint8(150), true, false, uint8(1), uint8(10), uint8(50), uint16(900), uint8(4))
	f.Add(uint64(3), uint8(20), false, true, uint8(5), uint8(80), uint8(5), uint16(1), uint8(2))
	f.Add(uint64(4), uint8(90), true, true, uint8(2), uint8(5), uint8(90), uint16(0), uint8(3))
	f.Fuzz(func(t *testing.T, graphSeed uint64, size uint8, lt, weighted bool, k, eps, delta uint8, tmax uint16, calls uint8) {
		n := 20 + int(size)
		model, bopt := diffusion.IC, graph.BuildOptions{Model: graph.WeightedCascade}
		if lt {
			model = diffusion.LT
		} else if graphSeed%2 == 1 {
			bopt = graph.BuildOptions{Model: graph.Trivalency, TrivalencySeed: graphSeed}
		}
		g, err := gen.ChungLu(n, int64(4*n), 2.1, graphSeed, bopt)
		if err != nil {
			t.Skip(err)
		}
		s, err := ris.NewSampler(g, model)
		if weighted {
			w := make([]float64, n)
			r := rng.New(graphSeed ^ 0x5a)
			for v := range w {
				w[v] = r.Float64()
			}
			s, err = ris.NewWeightedSampler(g, model, w)
		}
		if err != nil {
			t.Skip(err)
		}
		type call struct {
			seeds      []uint32
			eps, delta float64
			tmax       int64
		}
		r := rng.New(graphSeed + uint64(k))
		seq := make([]call, 1+int(calls)%4)
		for i := range seq {
			c := call{
				eps:   0.05 + float64((int(eps)+7*i)%90)/100,
				delta: 0.01 + float64((int(delta)+13*i)%90)/100,
				tmax:  int64(tmax) + int64(i)*int64(r.Intn(500)),
			}
			for j := 0; j < 1+int(k)%6; j++ {
				c.seeds = append(c.seeds, uint32(r.Intn(n)))
			}
			seq[i] = c
		}
		const seed = 11
		v := newStoreVerifier(s, seed)
		for run := 0; run < 2; run++ {
			walk, kept := newEstimator(s, seed), newRetainedEstimator(s, seed, v)
			for i, c := range seq {
				wInf, wUsed, wOK := walk.estimate(c.seeds, c.eps, c.delta, c.tmax)
				inf, used, ok := kept.estimate(c.seeds, c.eps, c.delta, c.tmax)
				if inf != wInf || used != wUsed || ok != wOK || kept.nextID != walk.nextID || kept.total != walk.total {
					t.Fatalf("run %d call %d %+v: retained (%v, %d, %v, next %d, total %d), walk (%v, %d, %v, next %d, total %d)",
						run, i, c, inf, used, ok, kept.nextID, kept.total, wInf, wUsed, wOK, walk.nextID, walk.total)
				}
			}
		}
	})
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

// BenchmarkEstimateInf compares the full-set loop (ref), the early-exit
// estimator (hits) and the retained one (retained) on one Estimate-Inf call
// at SSA's ε₂ for ε = 0.1. The retained leg is the second call on a warm
// verification store: a session's later SSA queries, which read the seeds'
// postings instead of walking. sets/op is the call's RR-set count.
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
			b.Run(prefix+"retained", func(b *testing.B) {
				v := newStoreVerifier(s, 1)
				newRetainedEstimator(s, 1, v).estimate(seeds, eps2, delta, 1<<40)
				est := newRetainedEstimator(s, 1, v)
				b.ResetTimer()
				var used int64
				for i := 0; i < b.N; i++ {
					est.nextID = 0
					_, used, _ = est.estimate(seeds, eps2, delta, 1<<40)
				}
				b.ReportMetric(float64(used), "sets/op")
			})
		}
	}
}
