package core

import (
	"math"

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
// collection of RR sets R′"). Verification set i is a pure function of
// (seed, i), and every call of one run starts at the id the previous call
// stopped at.
//
// The rule only asks where its ⌈Λ₂⌉-th hit — a set touching S — falls, and
// there are two ways to answer that with the same result:
//
//   - walk: draw the sets one id at a time, each a Sampler.HitsMarked walk
//     that stops at the first seed; the draws are those of the full set
//     (refEstimate in estimate_test.go builds the full set);
//   - retained: when the environment keeps the verification sets in a
//     store (Verifier), read the hit positions off the seeds' postings with
//     ris.StopIndex, growing the store window by window. A session's SSA
//     queries all start at id 0, so after the first one most calls grow
//     nothing.
type estimator struct {
	sampler  *ris.Sampler
	seed     uint64
	nextID   uint64   // monotonically increasing across calls in one SSA run
	total    int64    // RR sets tested across all calls
	retained Verifier // nil ⇒ every call walks fresh sets
	grew     bool     // a retained call grew the verification store

	// Walk scratch, allocated by newEstimator or on a retained estimator's
	// first walk.
	state *ris.State
	mark  []bool
	buf   []uint32
	r     rng.Source // re-seeded per sample: no per-sample allocation
}

func newEstimator(s *ris.Sampler, seed uint64) *estimator {
	e := &estimator{sampler: s, seed: seed}
	e.alloc()
	return e
}

// newRetainedEstimator answers from v's verification store; it allocates
// walk scratch only if a call runs past the store's id range.
func newRetainedEstimator(s *ris.Sampler, seed uint64, v Verifier) *estimator {
	return &estimator{sampler: s, seed: seed, retained: v}
}

func (e *estimator) alloc() {
	e.state = e.sampler.NewState()
	e.mark = make([]bool, e.sampler.Graph().NumNodes())
}

// estimate returns I^c(S) for the seed set, the number of RR sets used,
// and ok=false when Tmax was exhausted before Λ₂ successes (Alg. 3
// "return −1").
func (e *estimator) estimate(seeds []uint32, epsPrime, deltaPrime float64, tmax int64) (inf float64, used int64, ok bool) {
	lambda2 := stats.StoppingRuleThreshold(epsPrime, deltaPrime)
	var t int64
	if e.retained != nil {
		t = e.retainedStop(seeds, lambda2, tmax)
	} else {
		t = e.walk(seeds, lambda2, 0, 0, tmax)
	}
	if t > 0 {
		e.nextID += uint64(t)
		e.total += t
		return e.sampler.Scale() * lambda2 / float64(t), t, true
	}
	e.nextID += uint64(max(tmax, 0))
	e.total += tmax
	return -1, tmax, false
}

// walk runs the rule over fresh sets: having seen cov hits in the first t0
// ids from nextID, it tests the ids at positions t0+1 … tmax in turn and
// returns the position at which cov reaches lambda2, or 0 when tmax runs
// out first.
func (e *estimator) walk(seeds []uint32, lambda2 float64, t0 int64, cov float64, tmax int64) int64 {
	if e.state == nil {
		e.alloc()
	}
	for _, s := range seeds {
		e.mark[s] = true
	}
	defer func() {
		for _, s := range seeds {
			e.mark[s] = false
		}
	}()
	for t := t0 + 1; t <= tmax; t++ {
		ris.SeedVerifyStream(&e.r, e.seed, e.nextID+uint64(t-1))
		var hit bool
		if hit, e.buf = e.sampler.HitsMarked(&e.r, e.state, e.buf, e.mark); hit {
			cov++
		}
		if cov >= lambda2 {
			return t
		}
	}
	return 0
}

// retainedIDs is the verification id range a store can hold (ids are int32
// there). A variable only so tests can lower it.
var retainedIDs int64 = ris.MaxSets

// retainedStop is walk answered from the verification store: the position
// of the ⌈lambda2⌉-th hit at or after nextID, or 0. It asks for one window
// of ids at a time, each sized from the hit rate seen so far, so the store
// grows to little beyond the stopping id. Ids past retainedIDs, which no
// store holds, are walked.
func (e *estimator) retainedStop(seeds []uint32, lambda2 float64, tmax int64) int64 {
	need := math.Ceil(lambda2)
	if !(need <= float64(tmax)) { // also NaN: cov ≥ NaN never holds
		return 0 // fewer than need ids: the rule cannot fire
	}
	if need < 1 || e.nextID >= uint64(retainedIDs) {
		return e.walk(seeds, lambda2, 0, 0, tmax) // a rule that needs no hit, or ids no store holds
	}
	n := int64(need)
	base := int(e.nextID)
	limit := min(tmax, retainedIDs-int64(base)) // positions the store can hold
	var tested, seen int64
	for w := n; tested < limit; w = nextWindow(n-seen, tested, seen) {
		hi := tested + min(w, limit-tested)
		id, cov, grew := e.retained.VerifyStopIndex(seeds, base+int(tested), base+int(hi), n-seen)
		e.grew = e.grew || grew
		if seen += cov; seen == n {
			return int64(id-base) + 1
		}
		tested = hi
	}
	if limit == tmax {
		return 0
	}
	return e.walk(seeds, lambda2, tested, float64(seen), tmax)
}

// nextWindow sizes the next window of a retained call that still needs left
// hits after seen in tested ids: the ids expected to hold left hits plus one
// standard deviation at the observed rate, so one more window usually
// suffices and overshoots the stopping id by a few percent. With no hit yet
// it doubles the ids tested.
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
