// Package baselines implements the comparison algorithms of the paper's
// evaluation (§7): IMM (Tang, Shi, Xiao — SIGMOD'15), TIM and TIM+ (Tang,
// Xiao, Shi — SIGMOD'14), the CELF and CELF++ lazy-greedy Monte-Carlo
// algorithms, and the usual degree/random heuristics. All RIS-based
// baselines share the sampling substrate (internal/ris) with SSA/D-SSA so
// that running-time and sample-count comparisons isolate the algorithmic
// difference, exactly as in the paper.
package baselines

import (
	"errors"
	"fmt"
	"math"
	"time"

	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
	"stopandstare/internal/stats"
)

// Options configures the RIS-based baselines.
type Options struct {
	K       int
	Epsilon float64
	Delta   float64 // 0 ⇒ 1/n, the paper's setting
	Seed    uint64
	Workers int
	// Shards is the number of id shards of the RR store; ≤ 1 = one shard
	// (default), bit-identical results for any count. ShardWorkers bounds
	// per-shard parallelism (≤0 derives Workers/Shards).
	Shards       int
	ShardWorkers int
}

// Result reports a baseline run with the same metrics as core.Result.
type Result struct {
	Seeds           []uint32
	Influence       float64
	CoverageSamples int64
	TotalSamples    int64
	Iterations      int
	Elapsed         time.Duration
	MemoryBytes     int64
}

// Validation errors.
var (
	ErrNilSampler = errors.New("baselines: nil sampler")
	ErrBadK       = errors.New("baselines: k must satisfy 1 <= k <= n")
	ErrBadParam   = errors.New("baselines: epsilon and delta must lie in (0,1)")
)

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
	if !(o.Epsilon > 0 && o.Epsilon < 1) || !(o.Delta > 0 && o.Delta < 1) {
		return ErrBadParam
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return nil
}

// newStore builds the RR-set store the options describe.
func (o *Options) newStore(s *ris.Sampler) ris.Store {
	return ris.NewStore(s, o.Seed, ris.StoreOptions{
		Workers: o.Workers, Shards: o.Shards, ShardWorkers: o.ShardWorkers,
	})
}

// IMM implements the IMM algorithm: a LowerBound estimation phase that
// probes x = n/2^i with θ_i = λ′/x samples, followed by a node-selection
// phase on θ = λ*/LB samples. Both phases draw from one martingale stream,
// as in the published algorithm. δ = n^(−l) is generalised to explicit δ
// via l·ln n = ln(1/δ).
func IMM(s *ris.Sampler, opt Options) (*Result, error) {
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
	log2n := math.Log2(n)
	if log2n < 1 {
		log2n = 1
	}

	// Sampling (lower-bound) phase.
	epsPrime := math.Sqrt2 * eps
	lambdaPrime := (2 + 2*epsPrime/3) * (lnCnk + lnInvDelta + math.Log(log2n)) * n / (epsPrime * epsPrime)

	col := opt.newStore(s)
	// Both IMM phases grow one martingale stream, so a single incremental
	// solver serves every probe and the final node selection.
	sol := maxcover.NewSolver(col)
	lb := 1.0
	iterations := 0
	var mc maxcover.Result
	for i := 1; i < int(log2n); i++ {
		iterations++
		x := n / math.Pow(2, float64(i))
		thetaI := lambdaPrime / x
		col.GenerateTo(ceilPos(thetaI))
		mc = sol.Solve(col.Len(), k)
		est := mc.Influence(scale) // n·F_R(S_i) in the paper's notation
		if est >= (1+epsPrime)*x*scale/n {
			lb = est / (1 + epsPrime)
			break
		}
	}
	if lb < 1 {
		lb = 1
	}

	// Node-selection phase.
	alpha := math.Sqrt(lnInvDelta + math.Ln2)
	beta := math.Sqrt(stats.OneMinusInvE * (lnCnk + lnInvDelta + math.Ln2))
	lambdaStar := 2 * n * math.Pow(stats.OneMinusInvE*alpha+beta, 2) / (eps * eps)
	theta := lambdaStar / lb
	col.GenerateTo(ceilPos(theta))
	mc = sol.Solve(col.Len(), k)

	res := &Result{
		Seeds:           mc.Seeds,
		Influence:       mc.Influence(scale),
		CoverageSamples: int64(col.Len()),
		TotalSamples:    int64(col.Len()),
		Iterations:      iterations,
		MemoryBytes:     col.Bytes(),
		Elapsed:         time.Since(start),
	}
	return res, nil
}

// ceilPos converts a positive sample-count threshold θ to a count in
// [1, ris.MaxSets]. RR-set ids are int32, so a θ past 2³¹−1 (reachable on
// 64-bit for tiny OPT bounds) is capped instead of wrapping the ids.
func ceilPos(x float64) int {
	if x < 1 || math.IsNaN(x) {
		return 1
	}
	if x >= ris.MaxSets {
		return ris.MaxSets
	}
	return int(math.Ceil(x))
}
