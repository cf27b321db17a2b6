package core

import (
	"stopandstare/internal/ris"
	"stopandstare/internal/rng"
	"stopandstare/internal/stats"
)

// estimator runs the Estimate-Inf procedure (Alg. 3): a stopping-rule
// Monte-Carlo estimator (after Dagum–Karp–Luby–Ross) of I(S) with one-sided
// relative-error guarantee Pr[I^c(S) ≤ (1+ε′)I(S)] ≥ 1−δ′ (Lemma 3). It is
// capped at Tmax samples — the cap is what keeps SSA's verification cost
// proportional to |R| and avoids the quadratic blow-up discussed under
// Alg. 3.
//
// The estimator consumes PRNG streams from the reserved verification id
// space (ris.SeedVerifyStream), guaranteeing independence from the coverage
// collection as Alg. 1 line 10 requires ("independently generates another
// collection of RR sets R′").
//
// The rule only asks whether each RR set touches S, so each id is tested by
// a Sampler.HitsMarked walk that stops at the first seed; the draws, and so
// the answer, are those of the full set (refEstimate in estimate_test.go
// builds the full set).
type estimator struct {
	sampler *ris.Sampler
	seed    uint64
	nextID  uint64 // monotonically increasing across calls in one SSA run
	state   *ris.State
	mark    []bool
	buf     []uint32
	r       rng.Source // re-seeded per sample: no per-sample allocation
	total   int64      // RR sets tested across all calls
}

func newEstimator(s *ris.Sampler, seed uint64) *estimator {
	return &estimator{
		sampler: s,
		seed:    seed,
		state:   s.NewState(),
		mark:    make([]bool, s.Graph().NumNodes()),
	}
}

// estimate returns I^c(S) for the seed set, the number of RR sets used,
// and ok=false when Tmax was exhausted before Λ₂ successes (Alg. 3
// "return −1").
func (e *estimator) estimate(seeds []uint32, epsPrime, deltaPrime float64, tmax int64) (inf float64, used int64, ok bool) {
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
		var hit bool
		if hit, e.buf = e.sampler.HitsMarked(&e.r, e.state, e.buf, e.mark); hit {
			cov++
		}
		if cov >= lambda2 {
			e.total += t
			return scale * lambda2 / float64(t), t, true
		}
	}
	e.total += tmax
	return -1, tmax, false
}
