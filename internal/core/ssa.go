package core

import (
	"math"
	"time"

	"stopandstare/internal/maxcover"
	"stopandstare/internal/stats"
)

// SSA is the Stop-and-Stare Algorithm (Alg. 1). It returns a
// (1−1/e−ε)-approximate seed set with probability ≥ 1−δ using, with high
// probability, O(N⁽¹⁾min) RR sets — a constant factor of a type-1 minimum
// threshold (Theorem 3).
//
// Structure: keep a coverage collection R that doubles at each checkpoint;
// at each checkpoint solve max-coverage for a candidate Ŝ_k and "stare":
// (C1) is there enough coverage to trust Î(S*_k) within ε₃, and (C2) does
// an independent stopping-rule estimate I^c(Ŝ_k) (within ε₂) agree with
// Î(Ŝ_k) up to (1+ε₁)? Stop at the first checkpoint passing both.
//
// SSAWith runs SSA inside the given execution environment, sampling through
// the environment store's sampler. Every size the loop consumes comes
// from the deterministic doubling schedule, never from Store.Len(), so a
// pre-grown warm store yields results bit-identical to a cold run at the
// same seed.
func SSAWith(opt Options, env Exec) (*Result, error) {
	start := time.Now()
	s := env.Store().Sampler()
	if err := opt.normalize(s); err != nil {
		return nil, err
	}
	e1, e2, e3, err := opt.epsSplit()
	if err != nil {
		return nil, err
	}
	nmax, imax := opt.thresholds(s)
	delta := opt.Delta
	lnInv := math.Log(3 * float64(imax) / delta) // ln(3·imax/δ)

	lambda := stats.UpsilonLn(opt.Epsilon, lnInv)               // Λ  (line 3)
	lambda1 := (1 + e1) * (1 + e2) * stats.UpsilonLn(e3, lnInv) // Λ₁ (line 3)
	deltaPrime := delta / (3 * float64(imax))                   // δ′ for Estimate-Inf
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = imax + 8
	}

	// size tracks the schedule |R| = Λ·2^it. The cold store's Len always
	// equals it; a warm store may hold more, which the loop never observes.
	size := ceilPos(lambda)
	res := &Result{Eps1: e1, Eps2: e2, Eps3: e3}
	res.Grew = env.Ensure(size) // line 4
	var est *estimator
	if v, ok := env.(Verifier); ok {
		est = newRetainedEstimator(s, opt.Seed, v)
	} else {
		est = newEstimator(s, opt.Seed)
	}
	scale := s.Scale()

	var mc maxcover.Result
	for it := 1; ; it++ {
		res.Iterations = it
		// Line 6: double the size of R.
		size = boundedDouble(size)
		res.Grew = env.Ensure(size) || res.Grew
		// Line 7: find the candidate solution.
		locked(env, func() { mc = env.Solve(size, opt.K) })
		iHat := mc.Influence(scale)
		passed := false
		// Line 8: condition C1 — enough coverage to bound Î(S*_k).
		if float64(mc.Coverage) >= lambda1 {
			// Line 9: Tmax = 2|R|·(1+ε₂)/(1−ε₂)·ε₃²/ε₂².
			tmax := int64(math.Ceil(2 * float64(size) * (1 + e2) / (1 - e2) * (e3 * e3) / (e2 * e2)))
			if tmax < 1 {
				tmax = 1
			}
			// Line 10: independent stopping-rule estimate.
			ic, _, ok := est.estimate(mc.Seeds, e2, deltaPrime, tmax)
			// Line 11: condition C2 — the two estimates agree.
			passed = ok && iHat <= (1+e1)*ic
		}
		if opt.Trace != nil {
			opt.Trace(Checkpoint{Iteration: it, Samples: int64(size),
				Coverage: mc.Coverage, Influence: iHat, Passed: passed})
		}
		if passed {
			break
		}
		// Line 13: safety cap.
		if float64(size) >= nmax || it >= maxIter {
			res.HitCap = true
			break
		}
	}
	res.Seeds = mc.Seeds
	res.Influence = mc.Influence(scale)
	res.CoverageSamples = int64(size)
	res.VerifySamples = est.total
	res.Grew = res.Grew || est.grew
	res.TotalSamples = res.CoverageSamples + res.VerifySamples
	locked(env, func() { res.MemoryBytes = env.Store().Bytes() })
	res.Elapsed = time.Since(start)
	return res, nil
}

// ceilPos converts a positive float threshold to a sample count ≥ 1.
func ceilPos(x float64) int {
	if x < 1 {
		return 1
	}
	return int(math.Ceil(x))
}

// boundedDouble doubles n with overflow protection.
func boundedDouble(n int) int {
	if n <= 0 {
		return 1
	}
	if n >= growthCap {
		return n
	}
	return 2 * n
}
