package core

import (
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/maxcover"
)

// scratchExec is soloExec with every checkpoint solved by a fresh
// maxcover.Greedy: what a one-shot run allocates when nothing is kept
// between checkpoints.
type scratchExec struct{ *soloExec }

func (e scratchExec) Solve(upto, k int) maxcover.Result { return maxcover.Greedy(e.col, upto, k) }

// TestOneShotRecyclesSolverArrays is the one-shot allocation guard. A cold
// run never returns to a prefix, so its solver keeps ONE greedy run and
// hands that run's arrays from checkpoint to checkpoint; a solver that
// retained every checkpoint's run (right for a serving session) would
// allocate them afresh each time and show up in peak memory. Counted, not
// timed, and against a from-scratch baseline in the same binary, so neither
// the toolchain nor the race detector moves it: every checkpoint after the
// first must save at least the gain counts and the run's O(n) arrays.
// (Absolute counts when this guard was written, Workers = 1, go1.24: 108
// allocations per D-SSA run on this graph, 111 before the solver cached runs.)
func TestOneShotRecyclesSolverArrays(t *testing.T) {
	s := sampler(t, midGraph(t, 3000, 15000, 17), diffusion.IC)
	s.Plan()
	opt := Options{K: 5, Epsilon: 0.3, Seed: 3, Workers: 1}
	if err := opt.normalize(s); err != nil {
		t.Fatal(err)
	}
	var checkpoints int
	allocs := func(scratch bool) float64 {
		return testing.AllocsPerRun(5, func() {
			solo := newSoloExec(opt.newStore(s))
			var env Exec = solo
			if scratch {
				env = scratchExec{solo}
			}
			res, err := DSSAWith(opt, env)
			if err != nil {
				t.Fatal(err)
			}
			checkpoints = res.Iterations
		})
	}
	oneShot, scratch := allocs(false), allocs(true)
	if checkpoints < 3 {
		t.Fatalf("only %d checkpoints: the run is too short to show recycling", checkpoints)
	}
	if saved := scratch - oneShot; saved < float64(4*(checkpoints-1)) {
		t.Fatalf("one-shot D-SSA: %.0f allocations, %.0f solving each of %d checkpoints from scratch: saved %.0f, want ≥ %d",
			oneShot, scratch, checkpoints, saved, 4*(checkpoints-1))
	}
}
