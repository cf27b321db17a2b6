// Package tvm implements Targeted Viral Marketing (§7.3): maximise the
// benefit B(S) = Σ_v b(v)·Pr[S activates v] for non-negative node weights
// b(v) describing each user's relevance to a topic. Following Li–Zhang–Tan
// (KB-TIM) and the paper, the only change to the RIS machinery is weighted
// root selection (WRIS): roots are drawn proportionally to b(v), whereupon
// B(S) = Γ·Pr[S covers a weighted RR set] with Γ = Σ_v b(v) — so SSA,
// D-SSA, and TIM+ run unchanged with scale Γ and OPT lower bound equal to
// the top-k benefit sum.
package tvm

import (
	"errors"
	"fmt"
	"sort"

	"stopandstare/internal/baselines"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
)

// Instance is a TVM problem: a graph plus benefit weights.
type Instance struct {
	G       *graph.Graph
	Weights []float64 // b(v) ≥ 0
	Gamma   float64   // Σ b(v)
	Users   int       // |{v : b(v) > 0}|
}

// Errors.
var (
	ErrNilGraph   = errors.New("tvm: nil graph")
	ErrBadWeights = errors.New("tvm: weights must be non-negative, same length as nodes, positive sum")
)

// NewInstance validates weights and computes Γ.
func NewInstance(g *graph.Graph, weights []float64) (*Instance, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if len(weights) != g.NumNodes() {
		return nil, fmt.Errorf("%w: len=%d n=%d", ErrBadWeights, len(weights), g.NumNodes())
	}
	inst := &Instance{G: g, Weights: weights}
	for _, w := range weights {
		if w < 0 {
			return nil, ErrBadWeights
		}
		if w > 0 {
			inst.Users++
		}
		inst.Gamma += w
	}
	if inst.Gamma <= 0 {
		return nil, ErrBadWeights
	}
	return inst, nil
}

// Sampler returns the WRIS sampler for the instance under the given model.
func (t *Instance) Sampler(model diffusion.Model) (*ris.Sampler, error) {
	return ris.NewWeightedSampler(t.G, model, t.Weights)
}

// OptLowerBound returns Σ of the k largest benefits — a valid lower bound
// on OPT_k since seeding the top-k benefit nodes collects at least their
// own benefits.
func (t *Instance) OptLowerBound(k int) float64 {
	ws := make([]float64, 0, t.Users)
	for _, w := range t.Weights {
		if w > 0 {
			ws = append(ws, w)
		}
	}
	sort.Float64s(ws)
	sum := 0.0
	for i := len(ws) - 1; i >= 0 && len(ws)-i <= k; i-- {
		sum += ws[i]
	}
	if sum <= 0 {
		sum = 1
	}
	return sum
}

// KBTIM is the paper's TVM comparator: TIM+ running on WRIS samples
// (Li–Zhang–Tan's weighted RIS inside Tang et al.'s TIM+ skeleton).
func KBTIM(t *Instance, model diffusion.Model, opt baselines.Options) (*baselines.Result, error) {
	s, err := t.Sampler(model)
	if err != nil {
		return nil, err
	}
	return baselines.TIMPlus(s, opt)
}

// Benefit estimates B(S) by weighted forward Monte Carlo (for scoring
// returned seed sets, mirroring how the figures score IM seed sets).
func (t *Instance) Benefit(model diffusion.Model, seeds []uint32, runs int, seed uint64, workers int) (mean, stderr float64, err error) {
	return diffusion.Spread(t.G, model, seeds, diffusion.SpreadOptions{
		Runs:    runs,
		Seed:    seed,
		Workers: workers,
		Weights: t.Weights,
	})
}
