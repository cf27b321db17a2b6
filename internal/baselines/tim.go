package baselines

import (
	"math"
	"time"

	"stopandstare/internal/graph"
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
	"stopandstare/internal/stats"
)

// setWidth returns an RR set's width w(R) = Σ_{v∈R} d_in(v), the number of
// edges its reverse BFS examines: TIM's KPT estimate and Borgs' stopping
// rule read it.
func setWidth(g *graph.Graph, set []uint32) int64 {
	var w int64
	for _, v := range set {
		w += int64(g.InDegree(v))
	}
	return w
}

// kptStar runs TIM's KPT estimation (Alg. 2 of the TIM paper): probe
// exponentially growing sample counts c_i; for each RR set R compute
// κ(R) = 1 − (1 − w(R)/m)^k with w(R) = Σ_{v∈R} d_in(v); accept
// KPT* = n·Σκ/(2c_i) at the first scale where the average exceeds 1/2^i.
// Returns KPT* and the collection (reused downstream, as TIM does).
func kptStar(s *ris.Sampler, col ris.Store, k int, delta float64) (float64, int) {
	g := s.Graph()
	n := float64(g.NumNodes())
	m := float64(g.NumEdges())
	if m < 1 {
		return 1, 0
	}
	log2n := math.Log2(n)
	if log2n < 2 {
		log2n = 2
	}
	lnInvDelta := math.Log(1 / delta)
	iterations := 0
	widthDone := 0
	var sumKappa float64
	kappaAt := func(hi int) float64 {
		// incremental: extend κ sum over sets [widthDone, hi)
		col.ForEachSet(widthDone, hi, func(_ int, set []uint32) {
			sumKappa += 1 - math.Pow(1-float64(setWidth(g, set))/m, float64(k))
		})
		widthDone = hi
		return sumKappa
	}
	for i := 1; i < int(log2n); i++ {
		iterations++
		ci := int(math.Ceil((6*lnInvDelta + 6*math.Log(log2n)) * math.Pow(2, float64(i))))
		if ci < 1 {
			ci = 1
		}
		col.GenerateTo(ci)
		sk := kappaAt(ci)
		if sk/float64(ci) > 1/math.Pow(2, float64(i)) {
			kpt := n * sk / (2 * float64(ci))
			if kpt < 1 {
				kpt = 1
			}
			return kpt, iterations
		}
	}
	return 1, iterations
}

// TIM implements the two-phase TIM algorithm: KPT* estimation followed by
// node selection on θ = λ/KPT* RR sets, λ = (8+2ε)n(ln(1/δ)+lnC(n,k)+ln2)/ε²
// (the paper's Eq. 12 threshold).
func TIM(s *ris.Sampler, opt Options) (*Result, error) {
	return tim(s, opt, false)
}

// TIMPlus implements TIM+ — TIM with the intermediate refinement step that
// greedily solves max-coverage on a small sample to tighten KPT* into
// KPT⁺ = max(KPT′, KPT*) before committing to θ.
func TIMPlus(s *ris.Sampler, opt Options) (*Result, error) {
	return tim(s, opt, true)
}

func tim(s *ris.Sampler, opt Options, refine bool) (*Result, error) {
	start := time.Now()
	if err := opt.normalize(s); err != nil {
		return nil, err
	}
	g := s.Graph()
	n := float64(g.NumNodes())
	k := opt.K
	eps, delta := opt.Epsilon, opt.Delta
	scale := s.Scale()
	lnCnk := stats.LnChoose(g.NumNodes(), k)
	lnInvDelta := math.Log(1 / delta)

	col := opt.newStore(s)
	// The refinement greedy (TIM+) and the final node selection reuse the
	// same stream; the incremental solver scans it once in total.
	sol := maxcover.NewSolver(col)
	kpt, iterations := kptStar(s, col, k, delta)

	if refine {
		// KPT refinement (TIM+ / Alg. 3 of the TIM paper): ε′ = 5·∛(ε²l/(k+l))
		// with l = ln(1/δ)/ln n, then a greedy pass on θ′ = λ′/KPT* sets.
		l := lnInvDelta / math.Log(math.Max(n, 2))
		epsPrime := 5 * math.Cbrt(eps*eps*l/(float64(k)+l))
		if epsPrime >= 1 {
			epsPrime = 0.5
		}
		lambdaPrime := (2 + 2*epsPrime/3) * (lnCnk + lnInvDelta) * n / (epsPrime * epsPrime)
		thetaPrime := ceilPos(lambdaPrime / kpt)
		col.GenerateTo(thetaPrime)
		mc := sol.Solve(col.Len(), k)
		kptRefined := mc.Influence(scale) / (1 + epsPrime)
		if kptRefined > kpt {
			kpt = kptRefined
		}
	}

	lambda := (8 + 2*eps) * n * (lnInvDelta + lnCnk + math.Ln2) / (eps * eps)
	theta := ceilPos(lambda / kpt)
	col.GenerateTo(theta)
	mc := sol.Solve(col.Len(), k)

	return &Result{
		Seeds:           mc.Seeds,
		Influence:       mc.Influence(scale),
		CoverageSamples: int64(col.Len()),
		TotalSamples:    int64(col.Len()),
		Iterations:      iterations,
		MemoryBytes:     col.Bytes(),
		Elapsed:         time.Since(start),
	}, nil
}
