package core

import (
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
)

// Exec is the execution environment a stop-and-stare run works in: where
// the RR sets live, how the stream grows, how max-coverage candidates and
// holdout coverages are computed, and what locking (if any) brackets
// store reads. SSA and D-SSA are written against this interface. The one
// product implementation is stopandstare.Session: a long-lived store
// shared by a query stream, one solver for every k that retains a resumable
// greedy run per checkpoint prefix, and an RWMutex discipline where
// read-only queries run concurrently and only store growth takes the write
// lock. A one-shot Maximize is a Session serving a single query. Besides
// it, only tests (over reference and topology-specific stores) and the
// benchmark's traced session implement Exec.
//
// The algorithms promise to call Ensure with no read lock held, and to
// bracket every store read (Solve, Coverage, Stats reads like Bytes)
// between Acquire and Release. Because every quantity the loops consume is
// derived from the deterministic doubling schedule — never from Store.Len()
// — a run against a pre-grown ("warm") store is bit-identical to a cold
// run at the same seed: the store only ever over-provisions, and RR set i
// is a pure function of (seed, i).
type Exec interface {
	// Store returns the RR-set store the run draws from. Reads of it must
	// be bracketed by Acquire/Release.
	Store() ris.Store
	// Ensure grows the store to at least target RR sets, taking whatever
	// exclusive lock the environment requires, and reports whether it
	// actually generated (false when the store was already large enough —
	// the "warm" case). Must be called with the read lock NOT held.
	Ensure(target int) bool
	// Acquire takes the environment's read lock (a no-op where nothing is shared).
	Acquire()
	// Release drops the read lock.
	Release()
	// Solve returns the max-coverage solution over RR sets [0, upto),
	// exactly maxcover.Greedy(store, upto, k). Called under Acquire.
	Solve(upto, k int) maxcover.Result
	// Coverage counts the RR sets in [from, to) containing at least one
	// seed (Cov over D-SSA's holdout window). Called under Acquire.
	Coverage(seeds []uint32, from, to int) int64
}

// Verifier is an optional Exec extension that answers SSA's Estimate-Inf
// windows over the verification id space, whose RR set i is the one
// ris.SeedVerifyStream(seed, i) draws (Sampler.VerifySampler's stream): from
// a retained store, or by scanning. SSAWith type-asserts for it; without it,
// each window is scanned on Options.Workers (ris.ScanStop). Every answerer
// returns the same stopping id, so runs are bit-identical whichever answers.
type Verifier interface {
	// VerifyStopIndex returns ris.StopIndex's answer for the window
	// [from, to) of the verification stream, plus whether it grew a
	// retained store to answer. Called with no lock held; it takes whatever
	// locks the environment needs.
	VerifyStopIndex(seeds []uint32, from, to int, need int64) (id int, cov int64, grew bool)
}

// locked runs f between Acquire and Release, releasing on panic as well.
// The Store interface is error-free, so a remote-sharded store escapes
// worker failures as *ris.ShardError panics; an environment whose caller
// recovers one must not be left holding its read lock.
func locked(env Exec, f func()) {
	env.Acquire()
	defer env.Release()
	f()
}
