// Package stopandstare is a Go implementation of the Stop-and-Stare
// algorithms for influence maximization in billion-scale networks
// (Nguyen, Thai, Dinh — SIGMOD 2016):
//
//   - SSA, the Stop-and-Stare Algorithm, the first (1−1/e−ε)-approximation
//     meeting a type-1 minimum RIS sample threshold, and
//   - D-SSA, its dynamic variant meeting the stronger type-2 minimum
//     threshold with no parameter tuning,
//
// together with every substrate and baseline the paper builds on or
// compares against: IC/LT diffusion, RIS and weighted-RIS (WRIS) sampling,
// greedy max-coverage, IMM, TIM/TIM+, CELF/CELF++, and the Targeted Viral
// Marketing (TVM) application with the KB-TIM comparator.
//
// Quick start:
//
//	g, _ := stopandstare.GeneratePreset("nethept", 1.0, 42)
//	res, _ := stopandstare.Maximize(g, stopandstare.LT, stopandstare.DSSA,
//	    stopandstare.Options{K: 50, Epsilon: 0.1})
//	fmt.Println(res.Seeds, res.InfluenceEstimate)
//
// Everything is deterministic in Options.Seed, for any worker count.
package stopandstare

import (
	"fmt"
	"runtime"
	"time"

	"stopandstare/internal/baselines"
	"stopandstare/internal/core"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/ris"
)

// Model selects the propagation model (§2.1 of the paper).
type Model = diffusion.Model

// Propagation models.
const (
	// IC is the Independent Cascade model.
	IC = diffusion.IC
	// LT is the Linear Threshold model.
	LT = diffusion.LT
)

// ParseModel converts "IC"/"LT" to a Model.
func ParseModel(s string) (Model, error) { return diffusion.ParseModel(s) }

// Algorithm names an influence-maximization algorithm.
type Algorithm string

// The algorithm suite of the paper's evaluation (§7.1).
const (
	// SSA is the Stop-and-Stare Algorithm (paper Alg. 1).
	SSA Algorithm = "ssa"
	// DSSA is the Dynamic Stop-and-Stare Algorithm (paper Alg. 4).
	DSSA Algorithm = "dssa"
	// IMM is Tang et al.'s SIGMOD'15 baseline.
	IMM Algorithm = "imm"
	// TIM and TIMPlus are Tang et al.'s SIGMOD'14 baselines.
	TIM     Algorithm = "tim"
	TIMPlus Algorithm = "tim+"
	// CELF and CELFPlusPlus are the lazy-greedy Monte-Carlo baselines.
	CELF         Algorithm = "celf"
	CELFPlusPlus Algorithm = "celf++"
	// Borgs is the original SODA'14 RIS algorithm (width-threshold).
	Borgs Algorithm = "borgs"
	// Degree and Random are guarantee-free heuristics.
	Degree Algorithm = "degree"
	Random Algorithm = "random"
)

// Algorithms lists every supported algorithm name.
func Algorithms() []Algorithm {
	return []Algorithm{DSSA, SSA, IMM, TIMPlus, TIM, Borgs, CELFPlusPlus, CELF, Degree, Random}
}

// ParseAlgorithm resolves a case-exact algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if string(a) == s {
			return a, nil
		}
	}
	return "", fmt.Errorf("stopandstare: unknown algorithm %q (have %v)", s, Algorithms())
}

// Options configures Maximize.
type Options struct {
	// K is the seed budget (required, 1 ≤ K ≤ n).
	K int
	// Epsilon is the approximation slack of the (1−1/e−ε) guarantee.
	// Defaults to 0.1, the paper's setting.
	Epsilon float64
	// Delta is the failure probability; 0 selects the paper's δ = 1/n.
	Delta float64
	// Seed makes runs reproducible; 0 is a valid seed.
	Seed uint64
	// Workers bounds parallelism (≤0 ⇒ runtime.GOMAXPROCS(0); results are
	// bit-identical at any worker count).
	Workers int
	// MCRuns is the Monte-Carlo budget for CELF/CELF++ spread estimates
	// (0 ⇒ 10,000, the paper's setting).
	MCRuns int
	// BorgsC overrides the width-threshold constant of the Borgs
	// algorithm (0 ⇒ the analysis value 48; lower for practical runs).
	BorgsC float64
	// Eps1, Eps2, Eps3 optionally fix SSA's ε-split (must satisfy the
	// paper's Eq. 18; see RecommendedEpsilonSplit). All-zero selects the
	// paper's default split. Ignored by every other algorithm.
	Eps1, Eps2, Eps3 float64
	// OnCheckpoint, when non-nil, is invoked at every stop-and-stare
	// checkpoint of SSA/D-SSA with that iteration's state (observability
	// into the doubling/staring loop). Ignored by other algorithms.
	OnCheckpoint func(Checkpoint)
}

// Checkpoint reports one stop-and-stare iteration to Options.OnCheckpoint.
type Checkpoint = core.Checkpoint

// Result reports a Maximize run.
type Result struct {
	// Seeds is the selected seed set Ŝ_k.
	Seeds []uint32
	// InfluenceEstimate is the algorithm's own estimate of I(Ŝ_k)
	// (0 for the Degree/Random heuristics, which do not estimate).
	InfluenceEstimate float64
	// Samples is the number of RR sets generated (0 for non-RIS methods).
	Samples int64
	// Iterations is the number of checkpoints/phases taken.
	Iterations int
	// HitCap reports a stop-and-stare run that exited via the Nmax cap.
	HitCap bool
	// MemoryBytes approximates the RR-collection footprint.
	MemoryBytes int64
	// Elapsed is the wall-clock time of the algorithm.
	Elapsed time.Duration
	// Warm reports a Session query answered entirely from already-resident
	// RR samples: it grew neither the coverage store nor, for SSA, the
	// verification store. Always false for one-shot Maximize calls.
	Warm bool
	// Coalesced reports a query answered by joining another identical
	// in-flight query's execution instead of running its own: the
	// multi-tenant serving manager (internal/serving) folds concurrent
	// identical (algorithm, k, ε, δ) requests on one session into a single
	// execution, and every follower gets the leader's result with this flag
	// set. Because results are deterministic in the session seed, a
	// coalesced response is bit-identical to the one the follower would
	// have computed itself. Always false for direct Session/Maximize calls.
	Coalesced bool
}

func (o Options) fill() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 0.1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MCRuns <= 0 {
		o.MCRuns = 10000
	}
	return o
}

// Maximize runs the chosen influence-maximization algorithm on g under the
// given model and returns the seed set with metadata. SSA/D-SSA/IMM/TIM/
// TIM+ return (1−1/e−ε)-approximate solutions with probability ≥ 1−δ.
func Maximize(g *Graph, model Model, algo Algorithm, opt Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("stopandstare: nil graph")
	}
	opt = opt.fill()
	switch algo {
	case SSA, DSSA:
		return maximizeOnce(g, model, algo, opt, nil)
	case IMM, TIM, TIMPlus:
		s, err := ris.NewSampler(g, model)
		if err != nil {
			return nil, err
		}
		bopt := baselines.Options{K: opt.K, Epsilon: opt.Epsilon, Delta: opt.Delta,
			Seed: opt.Seed, Workers: opt.Workers}
		var res *baselines.Result
		switch algo {
		case IMM:
			res, err = baselines.IMM(s, bopt)
		case TIM:
			res, err = baselines.TIM(s, bopt)
		default:
			res, err = baselines.TIMPlus(s, bopt)
		}
		if err != nil {
			return nil, err
		}
		return &Result{Seeds: res.Seeds, InfluenceEstimate: res.Influence,
			Samples: res.TotalSamples, Iterations: res.Iterations,
			MemoryBytes: res.MemoryBytes, Elapsed: res.Elapsed}, nil
	case Borgs:
		s, err := ris.NewSampler(g, model)
		if err != nil {
			return nil, err
		}
		res, err := baselines.Borgs(s, baselines.BorgsOptions{
			Options: baselines.Options{K: opt.K, Epsilon: opt.Epsilon, Delta: opt.Delta,
				Seed: opt.Seed, Workers: opt.Workers},
			C: opt.BorgsC,
		})
		if err != nil {
			return nil, err
		}
		return &Result{Seeds: res.Seeds, InfluenceEstimate: res.Influence,
			Samples: res.TotalSamples, Iterations: res.Iterations,
			MemoryBytes: res.MemoryBytes, Elapsed: res.Elapsed}, nil
	case CELF, CELFPlusPlus:
		gopt := baselines.GreedyOptions{K: opt.K, Model: model, MCRuns: opt.MCRuns,
			Seed: opt.Seed, Workers: opt.Workers}
		var res *baselines.GreedyResult
		var err error
		if algo == CELF {
			res, err = baselines.CELF(g, gopt)
		} else {
			res, err = baselines.CELFPlusPlus(g, gopt)
		}
		if err != nil {
			return nil, err
		}
		return &Result{Seeds: res.Seeds, InfluenceEstimate: res.Influence,
			Iterations: int(res.Evaluations), Elapsed: res.Elapsed}, nil
	case Degree:
		start := time.Now()
		seeds, err := baselines.HighDegree(g, opt.K)
		if err != nil {
			return nil, err
		}
		return &Result{Seeds: seeds, Elapsed: time.Since(start)}, nil
	case Random:
		start := time.Now()
		seeds, err := baselines.RandomSeeds(g, opt.K, opt.Seed)
		if err != nil {
			return nil, err
		}
		return &Result{Seeds: seeds, Elapsed: time.Since(start)}, nil
	default:
		return nil, fmt.Errorf("stopandstare: unknown algorithm %q", algo)
	}
}

// maximizeOnce runs SSA/D-SSA as a session serving a single query — over
// the weighted (WRIS) stream when weights is non-nil: the same loops, store
// and solver machinery, so the cold path and the serving path cannot drift
// apart. Its schedule never returns to a prefix or a verification id, so the
// solver retains one greedy run, not a serving session's cache of them, and
// SSA scans its Estimate-Inf windows on opt.Workers instead of keeping the
// sets. opt must be filled.
func maximizeOnce(g *Graph, model Model, algo Algorithm, opt Options, weights []float64) (*Result, error) {
	sess, err := newSession(g, model, SessionOptions{Seed: opt.Seed, Workers: opt.Workers, Weights: weights}, true)
	if err != nil {
		return nil, err
	}
	return sess.Maximize(Query{Algorithm: algo, K: opt.K,
		Epsilon: opt.Epsilon, Delta: opt.Delta,
		Eps1: opt.Eps1, Eps2: opt.Eps2, Eps3: opt.Eps3,
		OnCheckpoint: opt.OnCheckpoint})
}

// EvaluateSpread scores a seed set by forward Monte-Carlo simulation:
// the expected number of activated nodes, with its standard error.
func EvaluateSpread(g *Graph, model Model, seeds []uint32, runs int, seed uint64, workers int) (mean, stderr float64, err error) {
	return diffusion.Spread(g, model, seeds, diffusion.SpreadOptions{
		Runs: runs, Seed: seed, Workers: workers,
	})
}

// RecommendedEpsilonSplit returns SSA ε₁/ε₂/ε₃ parameters following the
// paper's §4.2 guidance for the given network size (edge count), always
// satisfying the Eq. 18 constraint. Pass them through Options to tune SSA;
// D-SSA needs no tuning (it derives its split from data).
func RecommendedEpsilonSplit(eps float64, edges int64) (e1, e2, e3 float64, ok bool) {
	return core.RecommendedSplit(eps, core.RegimeFor(edges))
}

// Certificate is a two-sided (ε,δ) influence certificate; see CertifySpread.
type Certificate = core.Certificate

// CertifySpread produces an (ε,δ) certificate of I(S) from fresh RR sets
// via the Dagum–Karp–Luby–Ross stopping rule:
// Pr[(1−ε)·I(S) ≤ cert.Influence ≤ (1+ε)·I(S)] ≥ 1−δ.
// Far cheaper than EvaluateSpread when I(S) ≪ n, and it comes with a
// rigorous error bound instead of a standard error.
func CertifySpread(g *Graph, model Model, seeds []uint32, eps, delta float64, seed uint64) (*Certificate, error) {
	s, err := ris.NewSampler(g, model)
	if err != nil {
		return nil, err
	}
	return core.Certify(s, seeds, eps, delta, seed)
}
