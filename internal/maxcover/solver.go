package maxcover

import (
	"stopandstare/internal/epoch"
	"stopandstare/internal/ris"
)

// Solver is an incremental max-coverage solver over a growing RR stream.
// SSA, D-SSA, IMM and TIM all call max-coverage at every checkpoint of a
// doubling schedule; solving from scratch rescans the entire stream each
// time, i.e. O(Σ|R| so far) per checkpoint. A Solver keeps the selection-
// free gain counts alive across checkpoints, so Solve(upto, k) only scans
// the new suffix of RR sets — O(new items) — before running the same exact
// lazy greedy (Minoux) selection as Greedy. Scratch buffers (the working
// gain copy, the epoch-stamped covered marks, and the lazy-greedy heap's
// backing array) are likewise reused, so the steady-state checkpoint cost
// allocates only the returned seed slice.
//
// Equivalence with Greedy is exact, not approximate: the persistent gains
// after scanning [0, upto) equal the from-scratch counts (integer addition
// is associative), and the selection phase rebuilds the heap in ascending
// node order from those counts — the identical initial state Greedy
// constructs — so every pop, lazy re-push and selection proceeds
// identically. Greedy itself is a thin wrapper over a fresh Solver.
//
// Solve expects upto to be non-decreasing across calls (the doubling
// schedules of all callers guarantee this); a smaller upto falls back to a
// fresh from-scratch solve, preserving semantics at the old cost.
//
// The solver consumes the ris.Store interface only, and is insensitive to
// the store's postings-run ordering (gain updates and covered-set walks are
// order-independent sums), so every shard count yields bit-identical Seeds
// and Coverage — the property the differential harness pins.
type Solver struct {
	c       ris.Store
	scanned int         // RR sets [0, scanned) are counted in gains
	gains   []int32     // selection-free occurrence counts
	work    []int32     // per-Solve gain copy, decremented during selection
	covered epoch.Marks // covered RR-set ids, cleared per Solve by epoch bump
	inSeed  []bool      // selection marks, reset before Solve returns
	h       []candidate // heap backing array reused across Solves
}

// NewSolver creates an incremental solver bound to an RR-set store.
func NewSolver(c ris.Store) *Solver {
	n := c.NumNodes()
	return &Solver{
		c:      c,
		gains:  make([]int32, n),
		work:   make([]int32, n),
		inSeed: make([]bool, n),
	}
}

// Scanned returns the stream prefix length folded into the gain counts.
func (s *Solver) Scanned() int { return s.scanned }

// Solve returns the lazy-greedy max-coverage solution over RR sets
// [0, upto), identical to Greedy(c, upto, k). Only sets [scanned, upto)
// are read to update gains; selection cost is proportional to the covered
// items, not the stream length.
func (s *Solver) Solve(upto, k int) Result {
	c := s.c
	n := c.NumNodes()
	if upto > c.Len() {
		upto = c.Len()
	}
	if k > n {
		k = n
	}
	if upto < s.scanned {
		// Non-monotonic use: recompute from scratch without disturbing the
		// incremental state.
		return NewSolver(c).Solve(upto, k)
	}
	// Incremental gain update: only the new suffix is scanned (ForEachSet,
	// so a sharded store walks its shard runs without per-id lookups).
	gains := s.gains
	c.ForEachSet(s.scanned, upto, func(_ int, set []uint32) {
		for _, v := range set {
			gains[v]++
		}
	})
	s.scanned = upto

	res := Result{Upto: upto, Seeds: make([]uint32, 0, k)}
	copy(s.work, s.gains)
	// Rebuild the heap in ascending node order into the reused backing
	// array: the initial state is then bit-identical to Greedy's.
	s.h = s.h[:0]
	for v := 0; v < n; v++ {
		if s.work[v] > 0 {
			s.h = append(s.h, candidate{node: uint32(v), gain: s.work[v]})
		}
	}
	heapInit(s.h)

	s.covered.Reset(upto)

	for len(res.Seeds) < k && len(s.h) > 0 {
		top := heapPop(&s.h)
		v := top.node
		if s.inSeed[v] {
			continue
		}
		if top.gain != s.work[v] {
			if s.work[v] > 0 {
				heapPush(&s.h, candidate{node: v, gain: s.work[v]})
			}
			continue
		}
		if s.work[v] <= 0 {
			break // nothing uncovered remains reachable
		}
		// Select v: cover its uncovered sets, decrement other members.
		res.Seeds = append(res.Seeds, v)
		s.inSeed[v] = true
		res.Coverage += int64(s.work[v])
		it := c.PostingsUpto(v, upto)
		for {
			run, ok := it.Next()
			if !ok {
				break
			}
			for _, id := range run {
				if !s.covered.Visit(id) {
					continue
				}
				for _, u := range c.Set(int(id)) {
					s.work[u]--
				}
			}
		}
	}
	// Pad to k seeds with unused nodes (stable, lowest ids first).
	for v := 0; len(res.Seeds) < k && v < n; v++ {
		if !s.inSeed[v] {
			res.Seeds = append(res.Seeds, uint32(v))
			s.inSeed[v] = true
		}
	}
	for _, v := range res.Seeds {
		s.inSeed[v] = false
	}
	return res
}
