package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"stopandstare/internal/ris"
	"stopandstare/internal/stats"
)

// Certificate is a two-sided (ε,δ)-approximation of a seed set's influence
// obtained from fresh RR sets: Pr[(1−ε)I(S) ≤ Influence ≤ (1+ε)I(S)] ≥ 1−δ.
type Certificate struct {
	// Influence is the certified estimate of I(S) (or B(S) under WRIS).
	Influence float64
	// Epsilon and Delta are the guarantee parameters of the certificate.
	Epsilon, Delta float64
	// Samples is the number of RR sets the stopping rule consumed.
	Samples int64
	// Elapsed is the wall-clock time.
	Elapsed time.Duration
}

// ErrEmptySeeds reports an empty seed set, whose influence the stopping
// rule cannot certify (it would never observe a success).
var ErrEmptySeeds = errors.New("core: cannot certify an empty seed set")

// Certify runs the Dagum–Karp–Luby–Ross stopping rule on fresh RR sets to
// produce an (ε,δ) two-sided certificate of I(S) — the rigorous version of
// "score the returned seed set", and orders of magnitude cheaper than
// forward Monte-Carlo when I(S) ≪ n. The expected sample count is
// O(Υ(ε,δ)·n/I(S)), within a constant of optimal for this task (the same
// DKLR optimality that Estimate-Inf builds on). The sets are sampled on
// every CPU and scanned for S (ris.ScanStop), and none is kept, so memory
// stays at one scan slice whatever the cap.
//
// maxSamples bounds the rule: 0 selects min(4·Υ(ε,δ/2)·scale, 2²⁸) —
// enough to certify any I(S) ≥ scale-units/4 on uniform RIS — and the
// certificate is refused (with an error) rather than left running when a
// pathological seed set's influence lies below the affordable floor.
func Certify(s *ris.Sampler, seeds []uint32, eps, delta float64, seed uint64, maxSamples ...int64) (*Certificate, error) {
	start := time.Now()
	if s == nil {
		return nil, ErrNilSampler
	}
	if err := stats.CheckEpsDelta(eps, delta); err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		return nil, ErrEmptySeeds
	}
	n := s.Graph().NumNodes()
	for _, v := range seeds {
		if int(v) >= n {
			return nil, fmt.Errorf("core: seed %d out of range (n=%d)", v, n)
		}
	}
	if _, err := s.Plan(); err != nil { // a graph that fails the content checks
		return nil, err
	}
	est := newEstimator(s, seed, nil, 0)
	// Under uniform RIS, seeds cover RR sets rooted at themselves, so
	// µ = I(S)/n ≥ |S|/n and the stopping rule terminates in
	// O(Υ·n/I(S)) samples in expectation. Under WRIS a pathological S can
	// have B(S) arbitrarily close to zero, so the rule must be capped and
	// the certificate refused rather than left running unboundedly.
	var cap64 int64
	if len(maxSamples) > 0 && maxSamples[0] > 0 {
		cap64 = maxSamples[0]
	} else {
		budget := 4 * stats.Upsilon(eps, delta/2) * s.Scale()
		const ceiling = float64(1 << 28)
		if budget > ceiling {
			budget = ceiling
		}
		if budget < 1 {
			budget = 1
		}
		cap64 = int64(budget)
	}
	// δ/2 per tail makes the one-sided stopping-rule bound two-sided.
	inf, used, ok := est.estimate(seeds, eps, delta/2, cap64)
	if !ok {
		// The rule stops at the first count reaching Λ₂(ε, δ/2).
		return nil, fmt.Errorf("core: influence below the certifiable floor (%d samples without %.0f successes)",
			used, math.Ceil(stats.StoppingRuleThreshold(eps, delta/2)))
	}
	return &Certificate{
		Influence: inf,
		Epsilon:   eps,
		Delta:     delta,
		Samples:   used,
		Elapsed:   time.Since(start),
	}, nil
}
