package core

import (
	"math"
	"time"

	"stopandstare/internal/maxcover"
	"stopandstare/internal/stats"
)

// DSSA is the Dynamic Stop-and-Stare Algorithm (Alg. 4). It works on a
// single stream of RR sets: at iteration t the prefix R_t (first Λ·2^(t−1)
// sets) elects a candidate Ŝ_k by max-coverage and the disjoint suffix
// R^c_t (next Λ·2^(t−1) sets) verifies it, after which the whole stream is
// reused as the next prefix — no sample is ever discarded (fixing SSA's
// stated limitation). The precision split ε₁,ε₂,ε₃ is computed *from the
// data* at every checkpoint (lines 11–13), which is how D-SSA attains the
// type-2 minimum threshold (Theorem 6) without parameter tuning.
//
// DSSAWith runs D-SSA inside the given execution environment, sampling
// through the environment store's sampler. Every size the loop
// consumes — prefix, holdout window, reported sample counts — comes from
// the deterministic doubling schedule, never from Store.Len(), so a warm
// store yields bit-identical results.
func DSSAWith(opt Options, env Exec) (*Result, error) {
	start := time.Now()
	s := env.Store().Sampler()
	if err := opt.normalize(s); err != nil {
		return nil, err
	}
	nmax, tmaxIter := opt.thresholds(s)
	eps, delta := opt.Epsilon, opt.Delta
	c := stats.OneMinusInvE

	lnInv := math.Log(3 * float64(tmaxIter) / delta)   // ln(3·tmax/δ)
	lambda := stats.UpsilonLn(eps, lnInv)              // Λ  (line 3)
	lambda1 := 1 + (1+eps)*stats.UpsilonLn(eps, lnInv) // Λ₁ (line 3)
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = tmaxIter + 8
	}

	scale := s.Scale()

	res := &Result{}
	var mc maxcover.Result
	halfUnit := ceilPos(lambda)
	var streamLen int // |R_t ∪ R^c_t| = 2·half, per schedule
	for t := 1; ; t++ {
		res.Iterations = t
		half := boundedShift(halfUnit, t-1) // |R_t| = Λ·2^(t−1)
		streamLen = 2 * half
		res.Grew = env.Ensure(streamLen) || res.Grew // lines 6–7: R_t ++ R^c_t
		var covC int64
		locked(env, func() {
			// Line 8: candidate from the first half.
			mc = env.Solve(half, opt.K)
			// Index-driven verification: Cov over the holdout R^c_t is a union
			// walk of the candidates' postings in [half, 2·half) — O(Σ seed
			// postings in the window), not a rescan of the window's RR sets.
			covC = env.Coverage(mc.Seeds, half, streamLen)
		})
		iHat := mc.Influence(scale)
		passed := false
		// Line 9: condition D1 — stopping-rule check on the holdout.
		if float64(covC) >= lambda1 {
			nt := float64(half) // |R^c_t|
			ic := scale * float64(covC) / nt
			// Lines 11–13: dynamic precision parameters. Using the actual
			// |R^c_t| (instead of the idealised Λ·2^(t−1)) absorbs ceiling
			// effects; the two coincide when Λ is integral.
			e1 := iHat/ic - 1
			e2 := math.Sqrt((2 + 2*eps/3) * lnInv * (1 + eps) * scale / (ic * nt))
			e3 := math.Sqrt((2 + 2*eps/3) * lnInv * (1 + eps) * (c - eps) * scale / ((1 + eps/3) * ic * nt))
			// Line 14: ε_t = (ε₁+ε₂+ε₁ε₂)(1−1/e−ε) + (1−1/e)ε₃.
			epsT := (e1+e2+e1*e2)*(c-eps) + c*e3
			res.Eps1, res.Eps2, res.Eps3, res.EpsilonT = e1, e2, e3, epsT
			// Line 15: condition D2.
			passed = epsT <= eps
		}
		if opt.Trace != nil {
			opt.Trace(Checkpoint{Iteration: t, Samples: int64(streamLen),
				Coverage: mc.Coverage, Influence: iHat, Passed: passed,
				EpsilonT: res.EpsilonT})
		}
		if passed {
			break
		}
		// Line 17: cap on |R_t|.
		if float64(half) >= nmax || t >= maxIter {
			res.HitCap = true
			break
		}
	}
	res.Seeds = mc.Seeds
	res.Influence = mc.Influence(scale)
	res.CoverageSamples = int64(streamLen)
	res.VerifySamples = 0 // the verification half is reused, never discarded
	res.TotalSamples = res.CoverageSamples
	locked(env, func() { res.MemoryBytes = env.Store().Bytes() })
	res.Elapsed = time.Since(start)
	return res, nil
}

// boundedShift returns unit·2^sh with overflow protection.
func boundedShift(unit, sh int) int {
	v := unit
	for i := 0; i < sh; i++ {
		if v >= growthCap {
			return growthCap
		}
		v *= 2
	}
	return v
}
