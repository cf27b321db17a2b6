// Package core implements the paper's contribution: the Stop-and-Stare
// Algorithm (SSA, Alg. 1) with its Estimate-Inf stopping-rule verifier
// (Alg. 3), and the Dynamic Stop-and-Stare Algorithm (D-SSA, Alg. 4).
//
// Both return a (1−1/e−ε)-approximate seed set with probability ≥ 1−δ and
// stop at exponential checkpoints as soon as there is statistical evidence
// of solution quality — SSA within a constant factor of a type-1 minimum
// threshold, D-SSA within a constant factor of the type-2 minimum threshold
// (Defs. 5–6, Theorems 3 and 6).
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"stopandstare/internal/ris"
	"stopandstare/internal/stats"
)

// Options configures SSA and D-SSA.
type Options struct {
	// K is the seed-set budget (1 ≤ K ≤ n).
	K int
	// Epsilon is the approximation slack: the guarantee is (1−1/e−ε).
	// Must lie in (0, 1−1/e); the paper's experiments use 0.1.
	Epsilon float64
	// Delta is the failure probability; the paper uses 1/n. Defaults to
	// 1/n when zero.
	Delta float64
	// Eps1, Eps2, Eps3 optionally fix SSA's ε-split (must satisfy Eq. 18).
	// All-zero selects the paper's recommended setting (Eqs. 19–20).
	// Ignored by D-SSA, which chooses them dynamically.
	Eps1, Eps2, Eps3 float64
	// Seed drives SSA's Estimate-Inf stream. The Exec's store samples its
	// own stream; callers build it at the same seed.
	Seed uint64
	// Workers bounds the parallelism (≤0 ⇒ GOMAXPROCS) of SSA's
	// Estimate-Inf scan when the Exec is not a Verifier; the Exec's store
	// owns the rest of the sampling parallelism.
	Workers int
	// OptLowerBound is a known lower bound on OPT_k used only to size the
	// Nmax safety cap. Defaults to K for IM (each seed influences at least
	// itself); a weighted (TVM) session passes the top-K benefit sum.
	OptLowerBound float64
	// MaxIterations caps the doubling loop as a defensive bound on top of
	// the paper's Nmax cap. ≤0 selects imax+8.
	MaxIterations int
	// Trace, when non-nil, is invoked after every stop-and-stare
	// checkpoint with that iteration's state — the observability hook the
	// examples and ablations use to show the algorithms' anatomy.
	Trace func(Checkpoint)
}

// Checkpoint reports one stop-and-stare iteration to Options.Trace.
type Checkpoint struct {
	// Iteration is the checkpoint number t = 1, 2, ….
	Iteration int
	// Samples is |R| (SSA) or |R_t ∪ R^c_t| (D-SSA) at the checkpoint.
	Samples int64
	// Coverage is Cov_R(Ŝ_k) over the max-coverage prefix.
	Coverage int64
	// Influence is the running estimate Î(Ŝ_k).
	Influence float64
	// Passed reports whether the stopping conditions were met here.
	Passed bool
	// EpsilonT is D-SSA's ε_t at this checkpoint (0 for SSA).
	EpsilonT float64
}

// Result reports a stop-and-stare run.
type Result struct {
	// Seeds is the returned size-k seed set Ŝ_k.
	Seeds []uint32
	// Influence is the coverage-based estimate Î(Ŝ_k) = scale·Cov/|R|.
	Influence float64
	// CoverageSamples is |R|, the RR sets kept for max-coverage.
	CoverageSamples int64
	// VerifySamples counts Estimate-Inf RR sets (SSA only; D-SSA reuses its
	// stream and reports 0).
	VerifySamples int64
	// TotalSamples = CoverageSamples + VerifySamples — the paper's
	// "number of RR sets" metric (Table 3).
	TotalSamples int64
	// Iterations is the number of stop-and-stare checkpoints taken.
	Iterations int
	// HitCap reports termination by the Nmax safety cap rather than the
	// statistical stopping conditions.
	HitCap bool
	// Eps1, Eps2, Eps3 are the ε-split in effect at termination (the
	// dynamic values for D-SSA).
	Eps1, Eps2, Eps3 float64
	// EpsilonT is D-SSA's final ε_t (0 for SSA).
	EpsilonT float64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// MemoryBytes approximates the RR-collection footprint at termination.
	MemoryBytes int64
	// Grew reports whether the run generated new RR sets into a store:
	// always true for a cold run, false for a session query answered
	// entirely from already-resident samples. SSA's Estimate-Inf sets count
	// when the environment retains them (Verifier) and grew that store to
	// answer; the sets a streaming Estimate-Inf draws and drops do not.
	Grew bool
}

// growthCap bounds the sample-count doubling schedules: doubling stops
// once a count reaches it. The cap is derived from the store's id width
// (ris.MaxSets, int32 ids), not the platform's int: a schedule value stays
// below 2·growthCap and D-SSA's 2·half below 4·growthCap ≤ ris.MaxSets, on
// every platform. A run whose schedule saturates here ends with HitCap
// instead of wrapping ids.
const growthCap = ris.MaxSets / 4

// Validation errors.
var (
	ErrNilSampler = errors.New("core: nil sampler")
	ErrBadK       = errors.New("core: k must satisfy 1 <= k <= n")
	ErrBadEpsilon = errors.New("core: epsilon must lie in (0, 1-1/e)")
	ErrBadSplit   = errors.New("core: eps1/eps2/eps3 violate Eq. 18")
)

// normalize validates opt against the sampler and fills defaults.
func (o *Options) normalize(s *ris.Sampler) error {
	if s == nil {
		return ErrNilSampler
	}
	n := s.Graph().NumNodes()
	if o.K < 1 || o.K > n {
		return fmt.Errorf("%w: k=%d n=%d", ErrBadK, o.K, n)
	}
	if o.Delta == 0 {
		o.Delta = 1 / float64(n)
	}
	if !(o.Epsilon > 0 && o.Epsilon < stats.OneMinusInvE) {
		return fmt.Errorf("%w: epsilon=%v", ErrBadEpsilon, o.Epsilon)
	}
	if !(o.Delta > 0 && o.Delta < 1) {
		return fmt.Errorf("core: delta=%v outside (0,1)", o.Delta)
	}
	if o.OptLowerBound <= 0 {
		o.OptLowerBound = float64(o.K)
	}
	return nil
}

// epsSplit returns SSA's (ε₁,ε₂,ε₃): the user's values when set (validated
// against Eq. 18), otherwise the paper's recommended defaults (Eqs. 19–20):
// ε₂ = ε₃ = ε/(2(1−1/e)) with ε₁ solving Eq. 18 at equality —
// for ε = 0.1 this reproduces ε₁ ≈ 1/78, ε₂ = ε₃ ≈ 2/25 (Eq. 21).
func (o *Options) epsSplit() (e1, e2, e3 float64, err error) {
	c := stats.OneMinusInvE
	if o.Eps1 != 0 || o.Eps2 != 0 || o.Eps3 != 0 {
		e1, e2, e3 = o.Eps1, o.Eps2, o.Eps3
		if e1 <= 0 || e2 <= 0 || e2 >= 1 || e3 <= 0 || e3 >= 1 {
			return 0, 0, 0, fmt.Errorf("%w: eps1=%v eps2=%v eps3=%v", ErrBadSplit, e1, e2, e3)
		}
		lhs := c * (e1 + e2 + e1*e2 + e3) / ((1 + e1) * (1 + e2))
		if lhs > o.Epsilon*(1+1e-9) {
			return 0, 0, 0, fmt.Errorf("%w: combined %.6f > epsilon %.6f", ErrBadSplit, lhs, o.Epsilon)
		}
		return e1, e2, e3, nil
	}
	e2 = o.Epsilon / (2 * c)
	e3 = e2
	// Solve (1−1/e)(ε₁+ε₂+ε₁ε₂+ε₃)/((1+ε₁)(1+ε₂)) = ε for ε₁.
	e1 = (o.Epsilon*(1+e2) - c*(e2+e3)) / ((1 + e2) * (c - o.Epsilon))
	if e1 <= 0 || math.IsNaN(e1) || math.IsInf(e1, 0) {
		return 0, 0, 0, fmt.Errorf("%w: default split failed for epsilon=%v", ErrBadSplit, o.Epsilon)
	}
	return e1, e2, e3, nil
}

// thresholds computes the quantities both algorithms share:
// Nmax (Alg. 1 line 2 / Alg. 4 line 1) and imax/tmax.
func (o *Options) thresholds(s *ris.Sampler) (nmax float64, imax int) {
	n := s.Graph().NumNodes()
	eps, delta := o.Epsilon, o.Delta
	lnCnk := stats.LnChoose(n, o.K)
	// Υ(ε, δ/(6·C(n,k))) computed in log space.
	ups := stats.UpsilonLn(eps, math.Log(6/delta)+lnCnk)
	nmax = 8 * stats.OneMinusInvE / (2 + 2*eps/3) * ups * s.Scale() / o.OptLowerBound
	base := stats.Upsilon(eps, delta/3)
	imax = int(math.Ceil(math.Log2(2 * nmax / base)))
	if imax < 1 {
		imax = 1
	}
	return nmax, imax
}
