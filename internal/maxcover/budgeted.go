package maxcover

import "stopandstare/internal/ris"

// BudgetedResult is a budgeted max-coverage solution.
type BudgetedResult struct {
	Seeds    []uint32
	Coverage int64
	Cost     float64 // total cost of Seeds
	Upto     int
}

// Influence converts coverage into Î(S) = scale·Cov/|R|.
func (r BudgetedResult) Influence(scale float64) float64 {
	if r.Upto == 0 {
		return 0
	}
	return scale * float64(r.Coverage) / float64(r.Upto)
}

type ratioCand struct {
	node  uint32
	gain  int32
	ratio float64 // gain / cost at evaluation time
}

// above orders the ratio-greedy max-heap on benefit/cost (see heap.go).
func (c ratioCand) above(o ratioCand) bool { return c.ratio > o.ratio }

// BudgetedSolver is budgeted max-coverage over one fixed stream prefix
// [0, upto), solved under many spending caps. A budget sweep — TipTop-style
// repeated solves of one sample collection under different caps — rescans
// the whole prefix once per budget when done with GreedyBudgeted. A
// BudgetedSolver counts the selection-free gains once, at construction, so
// each Solve(budget) is a selection pass proportional to the covered
// items. Scratch (the working gain copy, the covered bitset, and the heap
// backing array) is reused across solves.
//
// Equivalence with GreedyBudgeted is exact: the heap is rebuilt per solve
// in ascending node order under the same affordability filter, and the
// selection loop replicates the lazy ratio-greedy plus the
// Khuller–Moss–Naor single-node fix-up step for step. GreedyBudgeted is a
// fresh BudgetedSolver solved once.
//
// The costs slice must not be mutated between solves. Like Solver, it
// consumes the ris.Store interface and is insensitive to the store's
// postings-run ordering.
type BudgetedSolver struct {
	c       ris.Store
	upto    int
	costs   []float64
	gains   []int32     // selection-free occurrence counts over [0, upto)
	work    []int32     // per-Solve gain copy, decremented during selection
	covered []uint64    // covered RR-set ids [0, upto), one bit each, cleared per Solve
	h       []ratioCand // heap backing array reused across Solves
}

// NewBudgetedSolver creates a budgeted solver over RR sets [0, upto) of c
// (upto is clamped to c.Len()), counting gains in one ForEachSet pass.
// Costs[v] is the price of seeding v (entries ≤ 0 default to 1, and a
// short or nil slice defaults the missing tail).
func NewBudgetedSolver(c ris.Store, upto int, costs []float64) *BudgetedSolver {
	upto = min(upto, c.Len())
	n := c.NumNodes()
	s := &BudgetedSolver{
		c:       c,
		upto:    upto,
		costs:   costs,
		gains:   make([]int32, n),
		work:    make([]int32, n),
		covered: make([]uint64, (upto+63)>>6),
	}
	c.ForEachSet(0, upto, func(_ int, set []uint32) {
		for _, v := range set {
			s.gains[v]++
		}
	})
	return s
}

func (s *BudgetedSolver) costOf(v uint32) float64 {
	if int(v) < len(s.costs) && s.costs[v] > 0 {
		return s.costs[v]
	}
	return 1
}

// Solve returns the lazy ratio-greedy budgeted solution over the solver's
// prefix, identical to GreedyBudgeted(c, upto, costs, budget).
func (s *BudgetedSolver) Solve(budget float64) BudgetedResult {
	c, upto := s.c, s.upto
	n := c.NumNodes()
	res := BudgetedResult{Upto: upto}
	if budget <= 0 {
		return res
	}
	copy(s.work, s.gains)
	// Rebuild the heap in ascending node order into the reused backing
	// array under this budget's affordability filter: the initial state is
	// then bit-identical to a from-scratch ratio greedy.
	s.h = s.h[:0]
	for v := 0; v < n; v++ {
		if s.work[v] > 0 && s.costOf(uint32(v)) <= budget {
			s.h = append(s.h, ratioCand{node: uint32(v), gain: s.work[v],
				ratio: float64(s.work[v]) / s.costOf(uint32(v))})
		}
	}
	heapInit(s.h)

	clear(s.covered)

	remaining := budget
	// Track the best single affordable node for the KMN fix-up.
	bestSingle := int32(-1)
	var bestSingleNode uint32
	for v := 0; v < n; v++ {
		if s.costOf(uint32(v)) <= budget && s.gains[v] > bestSingle {
			bestSingle = s.gains[v]
			bestSingleNode = uint32(v)
		}
	}

	for len(s.h) > 0 {
		top := heapPop(&s.h)
		v := top.node
		if s.work[v] <= 0 {
			continue // covered out, or already selected
		}
		cost := s.costOf(v)
		if cost > remaining {
			continue // cannot afford; drop (lazy heap keeps others coming)
		}
		if cur := float64(s.work[v]) / cost; top.ratio != cur {
			heapPush(&s.h, ratioCand{node: v, gain: s.work[v], ratio: cur})
			continue
		}
		// Select; covering v's sets zeroes work[v].
		remaining -= cost
		res.Cost += cost
		res.Seeds = append(res.Seeds, v)
		res.Coverage += int64(s.work[v])
		it := c.PostingsRange(v, 0, upto)
		for {
			run, ok := it.Next()
			if !ok {
				break
			}
			for _, id := range run {
				w, bit := &s.covered[id>>6], uint64(1)<<(id&63)
				if *w&bit != 0 {
					continue
				}
				*w |= bit
				for _, u := range c.Set(int(id)) {
					s.work[u]--
				}
			}
		}
	}

	// Khuller–Moss–Naor: the better of {ratio-greedy set, best single}.
	if bestSingle > 0 && int64(bestSingle) > res.Coverage {
		return BudgetedResult{
			Seeds:    []uint32{bestSingleNode},
			Coverage: int64(bestSingle),
			Cost:     s.costOf(bestSingleNode),
			Upto:     upto,
		}
	}
	return res
}

// GreedyBudgeted solves budgeted max-coverage over RR sets [0, upto):
// select nodes maximising coverage subject to Σ cost(v) ≤ budget, by the
// classic lazy benefit/cost-ratio greedy. Combined with the best single
// affordable node (Khuller–Moss–Naor), ratio greedy guarantees
// (1−1/√e) ≈ 0.39 of the optimum; this is the selection rule of the
// authors' cost-aware follow-up (BCT, INFOCOM'16 — reference [12] of the
// paper under reproduction).
//
// GreedyBudgeted is the one-solve entry point: exactly a fresh
// BudgetedSolver solved once. Budget sweeps should hold a BudgetedSolver
// instead, which scans the prefix once for the entire sweep.
func GreedyBudgeted(c ris.Store, upto int, costs []float64, budget float64) BudgetedResult {
	return NewBudgetedSolver(c, upto, costs).Solve(budget)
}
