package core

import (
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
)

// testExec is the tests' Exec: a one-shard store at the run's seed, one
// solver, no locking — a cold run without the Session around it.
type testExec struct {
	st  ris.Store
	sol *maxcover.Solver
}

func newTestExec(s *ris.Sampler, seed uint64) testExec {
	st := ris.NewStore(s, seed, ris.StoreOptions{})
	return testExec{st: st, sol: maxcover.NewSolver(st)}
}

func (e testExec) Store() ris.Store { return e.st }
func (e testExec) Ensure(target int) bool {
	grew := e.st.Len() < target
	e.st.GenerateTo(target)
	return grew
}
func (e testExec) Acquire()                          {}
func (e testExec) Release()                          {}
func (e testExec) Solve(upto, k int) maxcover.Result { return e.sol.Solve(upto, k) }
func (e testExec) Coverage(seeds []uint32, from, to int) int64 {
	return e.st.CoverageRangeSeeds(seeds, from, to)
}

// runSSA and runDSSA run the loops cold on s at opt.Seed.
func runSSA(s *ris.Sampler, opt Options) (*Result, error) {
	return SSAWith(opt, newTestExec(s, opt.Seed))
}

func runDSSA(s *ris.Sampler, opt Options) (*Result, error) {
	return DSSAWith(opt, newTestExec(s, opt.Seed))
}
