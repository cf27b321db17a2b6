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
// allocates per checkpoint only the returned seeds and a few words of
// goroutine bookkeeping, nothing O(n); one still held stays valid for its
// holder and is left to the collector.
//
// A new run is built on the store's Workers: a long seek counts its two
// halves on two goroutines, the gain copy and the ascending heap layout run
// per node range, and the heap's lower subtrees are heapified concurrently.
// Each step yields the arrays the serial one does, byte for byte (see
// load, start and heapify), so the worker count never shows in a result.
//
// Concurrency: mu covers the run list and the gain cursor and is held only
// for a lookup or a seek; each run has its own lock for extension and
// copy-out, so concurrent calls serialize only on a shared prefix. Calls may
// not overlap growth of the store. The solver consumes the ris.Store
// interface only and is insensitive to its postings-run ordering, so every
// shard count yields bit-identical Seeds and Coverage.
type Solver struct {
	c       ris.Store
	limit   int
	workers int // goroutines a new run is built on

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
	return &Solver{c: c, limit: limit, workers: max(c.Workers(), 1), gains: make([]int32, c.NumNodes())}
}

// parallelMin is the fewest nodes, heap candidates or sets moved by a seek
// that new-run construction splits across workers: below it a goroutine
// costs more than its share of the pass. A variable only so tests can
// lower it.
var parallelMin = 1 << 15

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
	if n := len(s.gains); cap(r.work) < n {
		r.work = make([]int32, n)
	} else {
		r.work = r.work[:n]
	}
	fills := s.load(upto, r.work)
	s.mu.Unlock()
	r.start(fills, s.workers)
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
// per-id lookups), or recounts from zero when that reads fewer sets. A move
// of parallelMin sets or more on several workers counts its second half
// into spare on a second goroutine and returns the sign with which spare
// still has to be folded into the cursor (0: spare is unused). Integer
// addition is associative, so the folded cursor is the serial one.
func (s *Solver) seek(upto int, spare []int32) (sign int32) {
	if upto < s.scanned-upto {
		clear(s.gains)
		s.scanned = 0
	}
	from, to, d := s.scanned, upto, int32(1)
	if upto < s.scanned {
		from, to, d = upto, s.scanned, -1
	}
	s.scanned = upto
	if s.workers < 2 || to-from < parallelMin {
		addSets(s.c, s.gains, from, to, d)
		return 0
	}
	mid := from + (to-from)/2
	parallel(2, func(half int) {
		if half == 0 {
			addSets(s.c, s.gains, from, mid, d)
		} else {
			clear(spare)
			addSets(s.c, spare, mid, to, 1)
		}
	})
	return d
}

// addSets adds d to gains[v] for every member v of the sets [from, to).
func addSets(c ris.Store, gains []int32, from, to int, d int32) {
	c.ForEachSet(from, to, func(_ int, set []uint32) {
		for _, v := range set {
			gains[v] += d
		}
	})
}

// parts is the number of node ranges a new run's passes split into.
func (s *Solver) parts() int {
	if s.workers > 1 && len(s.gains) >= parallelMin {
		return s.workers
	}
	return 1
}

// parallel runs fn(0), …, fn(parts−1) concurrently, fn(0) on the calling
// goroutine, and waits for all of them.
func parallel(parts int, fn func(p int)) {
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fn(p)
		}(p)
	}
	fn(0)
	wg.Wait()
}

// nodeRange is the p-th of parts contiguous ranges [lo, hi) of [0, n).
func nodeRange(n, p, parts int) (lo, hi int) { return n * p / parts, n * (p + 1) / parts }

// load moves the gain cursor to upto and leaves the prefix's gain counts in
// work, the new run's gain array, which the seek may use as scratch first.
// One pass per node range folds that scratch into the cursor, copies the
// counts and counts the positive ones; it returns those counts per range,
// for start's layout.
func (s *Solver) load(upto int, work []int32) []int {
	sign := s.seek(upto, work)
	fills := make([]int, s.parts())
	parallel(len(fills), func(p int) {
		lo, hi := nodeRange(len(work), p, len(fills))
		gains, work := s.gains[lo:hi], work[lo:hi]
		fill := 0
		for v, g := range gains {
			g += sign * work[v]
			gains[v], work[v] = g, g
			if g > 0 {
				fill++
			}
		}
		fills[p] = fill
	})
	return fills
}

// start resets the selection state around work, which holds the prefix's
// gain counts: nothing picked, nothing covered, every node with a positive
// gain on the heap in ascending node order. fills[p] counts the positive
// gains in load's p-th node range, so each range lays its candidates out at
// its own offset and the array is the one a serial pass appends.
func (r *run) start(fills []int, workers int) {
	r.seeds, r.cum = r.seeds[:0], r.cum[:0]
	words := (r.upto + 63) / 64
	if cap(r.covered) < words {
		r.covered = make([]uint64, words)
	}
	r.covered = r.covered[:words]
	clear(r.covered)
	// Size the heap exactly: a push always follows a pop of the same node,
	// so it never outgrows its initial fill.
	fill := 0
	for _, f := range fills {
		fill += f
	}
	if cap(r.h) < fill {
		r.h = make([]candidate, fill)
	}
	r.h = r.h[:fill]
	parallel(len(fills), func(p int) {
		lo, _ := nodeRange(len(r.work), p, len(fills))
		j := 0
		for _, f := range fills[:p] {
			j += f
		}
		// Every node is written and only a positive one kept, which spares
		// a mispredicted branch per node; slot j is this range's own until
		// its last candidate is placed.
		for v, end := lo, j+fills[p]; j < end; v++ {
			g := r.work[v]
			r.h[j] = candidate{node: uint32(v), gain: g}
			if g > 0 {
				j++
			}
		}
	})
	heapify(r.h, workers)
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
			popCandidate(&r.h)
			if r.work[v] > 0 {
				pushCandidate(&r.h, candidate{node: v, gain: r.work[v]})
			}
			continue
		}
		// A remote-sharded store fetches the postings here and raises a worker
		// failure as a panic: before anything below mutates the run, so the
		// run a retry finds is still exact.
		it := c.PostingsRange(v, 0, r.upto)
		popCandidate(&r.h)
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
