package core

import (
	"context"
	"math"

	"stopandstare/internal/ris"
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
// collection of RR sets R′"). Verification set i is a pure function of
// (seed, i), and every call of one run starts at the id the previous call
// stopped at.
//
// The rule only asks where its ⌈Λ₂⌉-th hit — a set touching S — falls, so
// it asks a Verifier, one window of ids at a time, each sized from the hits
// seen so far. The environment's Verifier may read the hits off a retained
// verification store (a session's SSA queries all start at id 0, so after
// the first one most windows grow nothing); without one, scanVerifier
// samples each window afresh and keeps nothing. Either way the stopping id
// is that of drawing the full sets one by one (refEstimate in
// estimate_test.go).
type estimator struct {
	v      Verifier
	scale  float64
	nextID uint64 // monotonically increasing across calls in one SSA run
	total  int64  // RR sets tested across all calls
	grew   bool   // a call grew the environment's verification store
}

// newEstimator answers from v, or from a scanVerifier on s's verification
// stream over workers goroutines when v is nil.
func newEstimator(s *ris.Sampler, seed uint64, v Verifier, workers int) *estimator {
	if v == nil {
		v = scanVerifier{s: s.VerifySampler(), seed: seed, workers: workers}
	}
	return &estimator{v: v, scale: s.Scale()}
}

// estimate returns I^c(S) for the seed set, the number of RR sets used,
// and ok=false when Tmax was exhausted before Λ₂ successes (Alg. 3
// "return −1").
func (e *estimator) estimate(seeds []uint32, epsPrime, deltaPrime float64, tmax int64) (inf float64, used int64, ok bool) {
	lambda2 := stats.StoppingRuleThreshold(epsPrime, deltaPrime)
	if t := e.stop(seeds, lambda2, tmax); t > 0 {
		e.nextID += uint64(t)
		e.total += t
		return e.scale * lambda2 / float64(t), t, true
	}
	e.nextID += uint64(max(tmax, 0))
	e.total += tmax
	return -1, tmax, false
}

// stop returns the position, counted from nextID, of the ⌈lambda2⌉-th hit,
// or 0 when tmax ids hold fewer. Λ₂ = 1 + (1+ε′)Υ ≥ 1, so need ≥ 1.
func (e *estimator) stop(seeds []uint32, lambda2 float64, tmax int64) int64 {
	need := math.Ceil(lambda2)
	if !(need <= float64(tmax)) { // also NaN: cov ≥ NaN never holds
		return 0 // fewer than need ids: the rule cannot fire
	}
	n := int64(need)
	base := int(e.nextID)
	var tested, seen int64
	for w := n; tested < tmax; w = nextWindow(n-seen, tested, seen) {
		hi := tested + min(w, tmax-tested)
		id, cov, grew := e.v.VerifyStopIndex(seeds, base+int(tested), base+int(hi), n-seen)
		e.grew = e.grew || grew
		if seen += cov; seen == n {
			return int64(id-base) + 1
		}
		tested = hi
	}
	return 0
}

// scanVerifier answers each window with ris.ScanStop: the sets are sampled
// afresh, on workers goroutines, and none is kept. It serves Certify and an
// Exec that retains no verification sets.
type scanVerifier struct {
	s       *ris.Sampler // the verification stream
	seed    uint64
	workers int
}

func (v scanVerifier) VerifyStopIndex(seeds []uint32, from, to int, need int64) (int, int64, bool) {
	id, cov, err := ris.ScanStop(context.Background(), v.s, v.seed, seeds, from, to, need, v.workers)
	if err != nil {
		panic(err) // the plan's content error: callers resolve Sampler.Plan first
	}
	return id, cov, false
}

// nextWindow sizes the next window of a call that still needs left hits
// after seen in tested ids: the ids expected to hold left hits plus one
// standard deviation at the observed rate, so one more window usually
// suffices and overshoots the stopping id by a few percent (a store grows,
// or a scan samples, that much past it). With no hit yet it doubles the
// ids tested.
func nextWindow(left, tested, seen int64) int64 {
	if seen == 0 {
		return max(tested, left)
	}
	hits := float64(left) + math.Sqrt(float64(left))
	w := math.Ceil(hits * float64(tested) / float64(seen))
	if w >= ris.MaxSets {
		return ris.MaxSets
	}
	return max(int64(w), left)
}
