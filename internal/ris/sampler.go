// Package ris implements Reverse Influence Sampling (§3.1.1): generation of
// random Reverse Reachable (RR) sets under the IC and LT models (Def. 2),
// the weighted-root WRIS variant used by targeted viral marketing (§7.3.1),
// and a deterministic, parallel, indexed collection of RR sets that SSA,
// D-SSA, IMM and TIM draw from.
package ris

import (
	"errors"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/epoch"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// Sampler generates random RR sets from a graph under a propagation model.
// The zero-weight case (uniform root selection) corresponds to classic RIS;
// a weighted sampler implements WRIS, where the root is chosen
// proportionally to each node's benefit b(v) and estimates scale by
// Γ = Σ_v b(v) instead of n (Lemma 1 and its weighted analogue).
//
// RR sets are drawn through the compiled plan (plan.go). RR set i is a pure
// function of (seed, i) for any worker, shard, or store topology; the
// statistical harness in plan_test.go checks the plan's distribution against
// the direct Bernoulli translation of Def. 2 (refSampler, reference_test.go).
type Sampler struct {
	g       *graph.Graph
	model   diffusion.Model
	root    *rng.Alias // nil ⇒ uniform root
	weights []float64  // WRIS benefit weights; retained so remote shards can rebuild the alias table
	scale   float64    // n for RIS, Γ for WRIS
	pc      *planCache // lazily compiled, shared per (graph, model)
}

// ErrNilGraph reports a missing graph.
var ErrNilGraph = errors.New("ris: nil graph")

// NewSampler returns a uniform-root (classic RIS) sampler. The compiled plan
// is served from the process-wide registry (see plancache.go): every sampler
// on the same (graph, model) — across Sessions, one-shot runs, WRIS and plain
// variants — shares one compilation.
func NewSampler(g *graph.Graph, model diffusion.Model) (*Sampler, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	return &Sampler{g: g, model: model, scale: float64(g.NumNodes()),
		pc: sharedPlanCache(g, model)}, nil
}

// NewWeightedSampler returns a WRIS sampler whose roots are drawn
// proportionally to weights (benefit values b(v) ≥ 0).
func NewWeightedSampler(g *graph.Graph, model diffusion.Model, weights []float64) (*Sampler, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if len(weights) != g.NumNodes() {
		return nil, errors.New("ris: weights length must equal NumNodes")
	}
	al, err := rng.NewAlias(weights)
	if err != nil {
		return nil, err
	}
	return &Sampler{g: g, model: model, root: al, weights: weights, scale: al.Total(),
		pc: sharedPlanCache(g, model)}, nil
}

// Plan returns the compiled sampling plan, compiling it on first use
// (shared and immutable afterwards; safe for concurrent callers). The
// compilation is shared process-wide per (graph, model) through the plan
// registry, so no matter how many samplers, stores, or sessions touch the
// same graph, the O(n + m) compile happens once.
func (s *Sampler) Plan() *Plan {
	if p := s.pc.plan.Load(); p != nil {
		return p
	}
	s.pc.once.Do(func() {
		s.pc.plan.Store(NewPlan(s.g, s.model))
		s.pc.compiles.Add(1)
	})
	return s.pc.plan.Load()
}

// PlanBytes reports the compiled plan's memory, 0 if it was never compiled.
// Non-forcing, for memory accounting.
func (s *Sampler) PlanBytes() int64 {
	if p := s.pc.plan.Load(); p != nil {
		return p.Bytes()
	}
	return 0
}

// Graph returns the underlying graph.
func (s *Sampler) Graph() *graph.Graph { return s.g }

// Model returns the propagation model.
func (s *Sampler) Model() diffusion.Model { return s.model }

// Scale returns the estimator scale: n for RIS, Γ = Σ b(v) for WRIS.
// Î(S) = Scale · Cov_R(S)/|R| (Lemma 1).
func (s *Sampler) Scale() float64 { return s.scale }

// Weighted reports whether this is a WRIS sampler.
func (s *Sampler) Weighted() bool { return s.root != nil }

// State is the per-goroutine scratch for RR-set generation: the visited set
// is the shared epoch-stamped epoch.Marks, so clearing between samples is a
// generation bump, not an O(n) sweep.
type State struct {
	marks epoch.Marks
	n     int
}

// NewState allocates sampling scratch for the sampler's graph.
func (s *Sampler) NewState() *State {
	st := &State{n: s.g.NumNodes()}
	st.marks.Reset(st.n) // size the backing array once, up front
	return st
}

// AppendSample generates one RR set using r and appends its nodes to buf.
// It returns the grown buffer, the number of nodes appended, and the RR
// set's width w(R) = Σ_{v∈R} d_in(v) (the quantity TIM's KPT estimator
// needs). The set occupies buf[len(buf)-setLen:]. For the LT model the
// nodes appear in reverse-walk order (root first), which tests rely on.
func (s *Sampler) AppendSample(r *rng.Source, st *State, buf []uint32) (newBuf []uint32, setLen int, width int64) {
	start := len(buf)
	buf, width, _ = s.walk(r, st, buf, nil)
	return buf, len(buf) - start, width
}

// HitsMarked reports whether the RR set AppendSample would draw from r
// contains a node v with marked[v]. It is the same walk with the same
// draws, stopped at the root or at the first marked node it visits, so a
// hit costs a fraction of the full set. buf is the walk's queue scratch;
// the grown buffer is returned for reuse and holds the nodes visited
// before the stop.
func (s *Sampler) HitsMarked(r *rng.Source, st *State, buf []uint32, marked []bool) (hit bool, newBuf []uint32) {
	buf, _, hit = s.walk(r, st, buf[:0], marked)
	return hit, buf
}

// walk draws the root and runs the plan's kernel from it, appending to buf;
// a non-nil stop ends it at the first node in stop (see Plan.appendSample).
func (s *Sampler) walk(r *rng.Source, st *State, buf []uint32, stop []bool) ([]uint32, int64, bool) {
	var root uint32
	if s.root != nil {
		root = uint32(s.root.Sample(r))
	} else {
		root = uint32(r.Intn(s.g.NumNodes()))
	}
	if stop != nil && stop[root] {
		return buf, 0, true
	}
	st.marks.Reset(st.n)
	start := len(buf)
	st.marks.Visit(int32(root))
	buf = append(buf, root)
	return s.Plan().appendSample(r, st, buf, start, root, stop)
}

// Sample generates one RR set into a fresh slice (convenience for tests).
func (s *Sampler) Sample(r *rng.Source, st *State) ([]uint32, int64) {
	buf, n, w := s.AppendSample(r, st, nil)
	return buf[len(buf)-n:], w
}
