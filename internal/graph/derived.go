package graph

import (
	"sync"
	"sync/atomic"
)

// A graph is immutable, so state derived from its sections holds for the
// graph's whole life and lives on the graph: the compiled sampling plans,
// one slot per propagation model, which internal/ris builds, and the result
// of the forward sections' content check. Every consumer of one *Graph
// shares them, failures included, and they are collected with the graph.

// PlanSlots is the number of plan slots: one per propagation model, indexed
// by the model's value (diffusion.IC, diffusion.LT).
const PlanSlots = 2

// Slot holds one value derived from a graph, or the error deriving it
// found: computed by the first Resolve under a sync.Once and returned to
// every later one.
type Slot struct {
	once sync.Once
	done atomic.Bool
	val  any
	err  error
}

// Resolve returns the slot's value and error, computing them on the first
// call.
func (s *Slot) Resolve(compute func() (any, error)) (any, error) {
	if !s.done.Load() {
		s.once.Do(func() {
			s.val, s.err = compute()
			s.done.Store(true)
		})
	}
	return s.val, s.err
}

// Value returns the slot's value, or nil until a Resolve has computed it.
func (s *Slot) Value() any {
	if s.done.Load() {
		return s.val
	}
	return nil
}

// PlanSlot returns g's slot for the plan of model i, creating it on first
// request.
func (g *Graph) PlanSlot(i int) *Slot {
	for {
		if s := g.plans[i].Load(); s != nil {
			return s
		}
		g.plans[i].CompareAndSwap(nil, new(Slot))
	}
}

// DropPlans forgets g's plan slots: samplers created afterwards compile
// again, while samplers that hold a slot keep it and its plan.
func (g *Graph) DropPlans() {
	for i := range g.plans {
		g.plans[i].Store(nil)
	}
}

// CheckForward checks the forward sections' content on first call and
// returns that result to every call: nil, or a *ContentError. Everything
// that walks out-edges (Monte-Carlo diffusion, CELF) calls it first; the
// reverse sections are checked by the plan compile that walks them.
func (g *Graph) CheckForward() error {
	_, err := g.forward.Resolve(func() (any, error) { return nil, g.checkForward() })
	return err
}

// checkForward checks that outIdx is monotone (its ends, 0 and m, are
// checked at open), every outAdj entry is a node and every outW is in
// [0, 1].
func (g *Graph) checkForward() error {
	for v := 0; v < g.n; v++ {
		lo, hi, err := Span("outIdx", g.outIdx, v, int64(len(g.outAdj)))
		if err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			if g.outAdj[i] >= uint32(g.n) {
				return &ContentError{Section: "outAdj", Index: i, Err: ErrBadEndpoint}
			}
			if w := g.outW[i]; !(w >= 0 && w <= 1) {
				return &ContentError{Section: "outW", Index: i, Err: ErrBadWeight}
			}
		}
	}
	return nil
}
