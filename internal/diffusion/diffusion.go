// Package diffusion implements the two propagation models of §2.1 —
// Independent Cascade (IC) and Linear Threshold (LT) — in one forward
// Monte-Carlo simulator, plus exact (possible-world enumeration) evaluators
// used by the test suite to validate Lemma 1 and the samplers.
//
// The forward simulator is what the paper's figures 2–3 use to score the
// returned seed sets ("expected influence"), and what the CELF/CELF++
// baselines use as their spread oracle.
package diffusion

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// Model selects the propagation model.
type Model uint8

const (
	// IC is the Independent Cascade model.
	IC Model = iota
	// LT is the Linear Threshold model.
	LT
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case IC:
		return "IC"
	case LT:
		return "LT"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// ParseModel converts "IC"/"LT" (any case) to a Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "IC", "ic", "Ic":
		return IC, nil
	case "LT", "lt", "Lt":
		return LT, nil
	}
	return 0, fmt.Errorf("diffusion: unknown model %q (want IC or LT)", s)
}

// ErrBadSeedSet reports an invalid seed set.
var ErrBadSeedSet = errors.New("diffusion: seed set contains out-of-range node")

// Scratch holds the per-goroutine buffers a simulation needs, so repeated
// simulations allocate nothing. Epoch-stamped marking avoids clearing.
type Scratch struct {
	n       int
	queue   []uint32
	mark    []uint32 // mark[v] == epoch ⇒ v active this run
	epoch   uint32
	acc     []float64 // LT: accumulated incoming active weight
	thresh  []float64 // LT: lazily sampled thresholds λ_v
	tsEpoch []uint32  // LT: epoch stamp for acc/thresh validity
}

// NewScratch allocates scratch buffers for an n-node graph.
func NewScratch(n int) *Scratch {
	return &Scratch{
		n:       n,
		queue:   make([]uint32, 0, 256),
		mark:    make([]uint32, n),
		acc:     make([]float64, n),
		thresh:  make([]float64, n),
		tsEpoch: make([]uint32, n),
	}
}

func (s *Scratch) nextEpoch() {
	s.epoch++
	if s.epoch == 0 { // wrapped: clear stamps once every 2^32 runs
		for i := range s.mark {
			s.mark[i] = 0
		}
		for i := range s.tsEpoch {
			s.tsEpoch[i] = 0
		}
		s.epoch = 1
	}
}

// Simulate runs one cascade from seeds under model and returns its benefit
// Σ_{activated v} weights[v], seeds included (the TVM objective B(S)). A
// nil weights slice counts each node as 1, so the result is the number of
// activated nodes.
//
// Under IC each newly activated u gets a single chance to activate each
// out-neighbour v, with probability w(u,v). Under LT node v activates when
// the total weight of its active in-neighbours reaches its threshold λ_v,
// drawn uniformly from [0,1] on first contact (lazy drawing is
// distributionally identical to drawing every threshold up front).
func Simulate(g *graph.Graph, model Model, seeds []uint32, weights []float64, r *rng.Source, sc *Scratch) float64 {
	sc.nextEpoch()
	q := sc.queue[:0]
	for _, s := range seeds {
		if sc.mark[s] != sc.epoch {
			sc.mark[s] = sc.epoch
			q = append(q, s)
		}
	}
	for head := 0; head < len(q); head++ {
		adj, ws := g.OutNeighbors(q[head])
		for i, v := range adj {
			if sc.mark[v] == sc.epoch {
				continue
			}
			var live bool
			if model == IC {
				live = r.Float64() < float64(ws[i])
			} else {
				if sc.tsEpoch[v] != sc.epoch {
					sc.tsEpoch[v] = sc.epoch
					sc.acc[v] = 0
					sc.thresh[v] = r.Float64()
				}
				sc.acc[v] += float64(ws[i])
				live = sc.acc[v] >= sc.thresh[v]
			}
			if live {
				sc.mark[v] = sc.epoch
				q = append(q, v)
			}
		}
	}
	sc.queue = q
	if weights == nil {
		return float64(len(q))
	}
	// q lists the activated nodes in activation order.
	benefit := 0.0
	for _, v := range q {
		benefit += weights[v]
	}
	return benefit
}

// SpreadOptions configures Monte-Carlo spread estimation.
type SpreadOptions struct {
	Runs    int       // number of simulations (paper figures use 10,000)
	Seed    uint64    // base seed; run i uses stream (Seed, i)
	Workers int       // parallel workers; ≤ 0 means 1
	Weights []float64 // optional TVM benefit weights
}

// Spread estimates I(S) (or the weighted benefit B(S)) by Monte Carlo,
// returning the mean and the standard error of the mean. Deterministic for
// a fixed seed regardless of worker count. A graph whose forward sections
// fail graph.CheckForward returns that error before any simulation runs.
func Spread(g *graph.Graph, model Model, seeds []uint32, opt SpreadOptions) (mean, stderr float64, err error) {
	if err := g.CheckForward(); err != nil {
		return 0, 0, err
	}
	for _, s := range seeds {
		if int(s) >= g.NumNodes() {
			return 0, 0, fmt.Errorf("%w: %d", ErrBadSeedSet, s)
		}
	}
	if opt.Runs <= 0 {
		opt.Runs = 10000
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > opt.Runs {
		workers = opt.Runs
	}
	results := make([]float64, opt.Runs)
	var wg sync.WaitGroup
	chunk := (opt.Runs + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > opt.Runs {
			hi = opt.Runs
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sc := NewScratch(g.NumNodes())
			for i := lo; i < hi; i++ {
				results[i] = Simulate(g, model, seeds, opt.Weights, rng.NewStream(opt.Seed, uint64(i)), sc)
			}
		}(lo, hi)
	}
	wg.Wait()
	var sum, sum2 float64
	for _, x := range results {
		sum += x
	}
	mean = sum / float64(opt.Runs)
	for _, x := range results {
		d := x - mean
		sum2 += d * d
	}
	if opt.Runs > 1 {
		stderr = math.Sqrt(sum2 / float64(opt.Runs-1) / float64(opt.Runs))
	}
	return mean, stderr, nil
}
