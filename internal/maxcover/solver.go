package maxcover

import (
	"slices"
	"sync"

	"stopandstare/internal/ris"
)

// Solver is a caching max-coverage solver over a growing RR stream. SSA,
// D-SSA, IMM and TIM all call max-coverage at every checkpoint of a doubling
// schedule, and a serving session asks again at the same checkpoints for
// other k. Two facts make both cheap:
//
//   - the selection-free gain counts of a prefix are a sum over its sets, so
//     one gain cursor moves between prefixes by adding or subtracting the
//     sets in between (seek) instead of rescanning the stream;
//   - Solve(upto, k) is the first k steps of a lazy-greedy (Minoux) loop
//     that does not depend on k, so the solver keeps, per prefix length, one
//     resumable run: the picks so far, the coverage after each pick, and the
//     frozen loop state. A request the run already covers is an O(k) copy;
//     a larger k resumes the loop where it stopped, never from zero.
//
// Equivalence with a from-scratch solve is exact, not approximate: integer
// addition is associative, so the cursor's counts at upto equal a scan of
// [0, upto); a run starts from those counts with its heap filled in ascending
// node order — candidate.above compares gains only, so ties are broken by
// heap layout — and a resumed run continues that same heap, so every pop,
// lazy re-push and pick is the one a fresh loop makes. Padding (lowest unused
// ids when coverage saturates before k picks) is applied to the returned
// copy and never stored. Greedy is a fresh Solver solved once.
//
// The solver retains at most limit runs, least recently used first out. An
// evicted run that no call holds hands its arrays to the next run, so a
// one-run solver (NewSolver: one-shot schedules never revisit a prefix)
// allocates per checkpoint only the returned seeds; one still held stays
// valid for its holder and is left to the collector.
//
// Concurrency: mu covers the run list and the gain cursor and is held only
// for a lookup or a seek; each run has its own lock for extension and
// copy-out, so concurrent calls serialize only on a shared prefix. Calls may
// not overlap growth of the store. The solver consumes the ris.Store
// interface only and is insensitive to its postings-run ordering, so every
// shard count yields bit-identical Seeds and Coverage.
type Solver struct {
	c     ris.Store
	limit int

	mu      sync.Mutex // guards the fields below and every run's pins, bytes
	scanned int        // gains counts RR sets [0, scanned)
	gains   []int32    // selection-free occurrence counts: the gain cursor
	runs    []*run     // retained runs, least recently used first
}

// run is one resumable lazy-greedy selection over the fixed prefix
// [0, upto). Lock order: Solver.mu is taken before run.mu only for a run no
// call can hold (new, or evicted with pins == 0); a holder of run.mu may take
// Solver.mu.
type run struct {
	upto  int
	pins  int   // Solve calls between acquire and release
	bytes int64 // footprint as of the last release

	mu      sync.Mutex
	seeds   []uint32    // picks so far, in selection order
	cum     []int64     // cum[i] = RR sets covered by seeds[:i+1]
	work    []int32     // marginal gains given seeds
	covered []uint64    // bitset of covered RR-set ids
	h       []candidate // the lazy-greedy heap, continued on resume
}

// NewSolver creates a solver that retains a single run: the right shape for
// a one-shot schedule, which solves each prefix once (or twice in a row).
func NewSolver(c ris.Store) *Solver { return NewCachedSolver(c, 1) }

// NewCachedSolver creates a solver that retains up to limit (≥ 1) runs, for
// callers that come back to earlier prefixes.
func NewCachedSolver(c ris.Store, limit int) *Solver {
	if limit < 1 {
		limit = 1
	}
	return &Solver{c: c, limit: limit, gains: make([]int32, c.NumNodes())}
}

// Scanned returns the prefix length the gain cursor stands at: the prefix of
// the most recently created run.
func (s *Solver) Scanned() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scanned
}

// Retained returns the number of retained runs and the exact heap bytes of
// their arrays plus the gain cursor.
func (s *Solver) Retained() (runs int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bytes = 4 * int64(cap(s.gains))
	for _, r := range s.runs {
		bytes += r.bytes
	}
	return len(s.runs), bytes
}

// Solve returns the lazy-greedy max-coverage solution over RR sets
// [0, upto), identical to Greedy(c, upto, k), for any order of upto and k
// across calls.
func (s *Solver) Solve(upto, k int) Result {
	n := s.c.NumNodes()
	if upto > s.c.Len() {
		upto = s.c.Len()
	}
	if k > n {
		k = n
	}
	r := s.acquire(upto)
	defer s.release(r)
	r.extend(s.c, k)
	res := Result{Upto: upto, Seeds: make([]uint32, 0, k)}
	if picks := min(k, len(r.seeds)); picks > 0 {
		res.Seeds = append(res.Seeds, r.seeds[:picks]...)
		res.Coverage = r.cum[picks-1]
	}
	if len(res.Seeds) < k {
		// Coverage saturated: pad to k (≤ n) seeds with the lowest unused ids.
		used := slices.Clone(res.Seeds)
		slices.Sort(used)
		for v := uint32(0); len(res.Seeds) < k; v++ {
			if len(used) > 0 && used[0] == v {
				used = used[1:]
			} else {
				res.Seeds = append(res.Seeds, v)
			}
		}
	}
	return res
}

// acquire returns the run for upto, pinned and locked, creating it — from
// the arrays of an evicted run when no call holds that one — if the solver
// does not retain it.
func (s *Solver) acquire(upto int) *run {
	s.mu.Lock()
	last := len(s.runs) - 1
	for i, r := range s.runs {
		if r.upto == upto {
			copy(s.runs[i:], s.runs[i+1:])
			s.runs[last] = r
			r.pins++
			s.mu.Unlock()
			r.mu.Lock()
			return r
		}
	}
	var r *run
	if len(s.runs) == s.limit {
		if old := s.runs[0]; old.pins == 0 {
			r = old
		}
		s.runs = append(s.runs[:0], s.runs[1:]...)
	}
	if r == nil {
		r = new(run)
	}
	s.runs = append(s.runs, r)
	r.upto, r.pins = upto, 1
	r.mu.Lock()
	s.seek(upto)
	r.work = append(r.work[:0], s.gains...)
	s.mu.Unlock()
	r.start()
	return r
}

// release records the run's footprint, unpins and unlocks it.
func (s *Solver) release(r *run) {
	s.mu.Lock()
	r.pins--
	r.bytes = 4*int64(cap(r.seeds)) + 8*int64(cap(r.cum)) + 4*int64(cap(r.work)) +
		8*int64(cap(r.covered)) + 8*int64(cap(r.h))
	s.mu.Unlock()
	r.mu.Unlock()
}

// seek moves the gain cursor to upto by adding or subtracting the sets in
// between (ForEachSet, so a sharded store walks its shard runs without
// per-id lookups), or recounts from zero when that reads fewer sets.
func (s *Solver) seek(upto int) {
	gains := s.gains
	if upto < s.scanned-upto {
		clear(gains)
		s.scanned = 0
	}
	if upto >= s.scanned {
		s.c.ForEachSet(s.scanned, upto, func(_ int, set []uint32) {
			for _, v := range set {
				gains[v]++
			}
		})
	} else {
		s.c.ForEachSet(upto, s.scanned, func(_ int, set []uint32) {
			for _, v := range set {
				gains[v]--
			}
		})
	}
	s.scanned = upto
}

// start resets the selection state around work, which holds the prefix's
// gain counts: nothing picked, nothing covered, every node with a positive
// gain on the heap in ascending node order.
func (r *run) start() {
	r.seeds, r.cum = r.seeds[:0], r.cum[:0]
	words := (r.upto + 63) / 64
	if cap(r.covered) < words {
		r.covered = make([]uint64, words)
	}
	r.covered = r.covered[:words]
	clear(r.covered)
	// Size the heap exactly: a push always follows a pop of the same node,
	// so it never outgrows its initial fill, and growing by append from a
	// smaller capacity costs more than this counting pass.
	fill := 0
	for _, g := range r.work {
		if g > 0 {
			fill++
		}
	}
	if cap(r.h) < fill {
		r.h = make([]candidate, 0, fill)
	}
	r.h = r.h[:0]
	for v, g := range r.work {
		if g > 0 {
			r.h = append(r.h, candidate{node: uint32(v), gain: g})
		}
	}
	heapInit(r.h)
}

// extend resumes the lazy-greedy loop until the run has k picks or no node
// covers anything new. Selection cost is proportional to the covered items,
// not the stream length.
func (r *run) extend(c ris.Store, k int) {
	// Only nodes on the heap can still be picked: room for them, once.
	if room := min(k, len(r.seeds)+len(r.h)) - len(r.seeds); room > 0 {
		r.seeds, r.cum = slices.Grow(r.seeds, room), slices.Grow(r.cum, room)
	}
	for len(r.seeds) < k && len(r.h) > 0 {
		top := r.h[0]
		v := top.node
		if top.gain != r.work[v] {
			// Stale entry (a picked node's gain is 0, so it lands here too):
			// re-queue at the current gain. Only positive gains are pushed.
			heapPop(&r.h)
			if r.work[v] > 0 {
				heapPush(&r.h, candidate{node: v, gain: r.work[v]})
			}
			continue
		}
		// A remote-sharded store fetches the postings here and raises a worker
		// failure as a panic: before anything below mutates the run, so the
		// run a retry finds is still exact.
		it := c.PostingsRange(v, 0, r.upto)
		heapPop(&r.h)
		// Select v: cover its uncovered sets, decrement other members.
		r.seeds = append(r.seeds, v)
		covered := int64(r.work[v])
		if len(r.cum) > 0 {
			covered += r.cum[len(r.cum)-1]
		}
		r.cum = append(r.cum, covered)
		for {
			ids, ok := it.Next()
			if !ok {
				break
			}
			for _, id := range ids {
				if w, bit := id>>6, uint64(1)<<(id&63); r.covered[w]&bit == 0 {
					r.covered[w] |= bit
					for _, u := range c.Set(int(id)) {
						r.work[u]--
					}
				}
			}
		}
	}
}
