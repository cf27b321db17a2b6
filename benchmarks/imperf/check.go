package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"

	ss "stopandstare"
)

// checker counts the operations of a run and the ones that failed, with one
// line per failure.
type checker struct {
	attempted, failed int
	notes             []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// reps counts every query of every rep, and requires every rep to return the
// same answer at every position as ref (the first rep of the run): every rep
// does bit-identical work.
func (c *checker) reps(what string, sched [][]query, ref *repResult, reps []*repResult) {
	for _, r := range reps {
		for cl := range sched {
			c.attempted += len(sched[cl])
		}
		c.failed += len(r.errs)
		for _, e := range r.errs {
			if len(c.notes) < 20 {
				c.notes = append(c.notes, what+": "+e)
			}
		}
		for cl := range sched {
			for i := range sched[cl] {
				if !r.ans[cl][i].same(ref.ans[cl][i]) {
					c.fail("%s: client %d position %d %v differs between reps", what, cl, i, sched[cl][i])
				}
			}
		}
	}
}

// rrSets is Σ Result.Samples over one pass's answers.
func rrSets(r *repResult) int64 {
	var n int64
	for _, as := range r.ans {
		for _, a := range as {
			n += a.samples
		}
	}
	return n
}

type position struct{ client, i int }

// oracle re-derives a seeded tenth of the positions (distinct queries only)
// with a cold one-shot stopandstare.Maximize at the session seed and compares
// field for field — the repo's bit-identity contract, through whatever the
// workload put between the query and the store. It then scores two answers by
// forward Monte-Carlo: the algorithm's own estimate Î must agree with the
// simulated spread σ̂ within ε plus three standard errors.
func (c *checker) oracle(e *env, sched [][]query, ref *repResult, seed uint64) error {
	var all []position
	for cl := range sched {
		for i := range sched[cl] {
			all = append(all, position{cl, i})
		}
	}
	r := splitmix(seed ^ 0x636865636b)
	shuffle(&r, all)
	want := (len(all) + 9) / 10
	seen := map[query]bool{}
	var picked []position
	for _, p := range all {
		q := sched[p.client][p.i]
		if len(picked) < want && !seen[q] {
			seen[q] = true
			picked = append(picked, p)
		}
	}

	graphs := map[string]*ss.Graph{}
	defer func() {
		for _, g := range graphs {
			ss.DropCachedPlans(g)
			g.Close()
		}
	}()
	graph := func(t tenant) (*ss.Graph, error) {
		if g := graphs[t.file()]; g != nil {
			return g, nil
		}
		g, err := ss.OpenGraphFile(filepath.Join(e.dir, t.file()))
		if err == nil {
			graphs[t.file()] = g
		}
		return g, err
	}
	for _, p := range picked {
		q := sched[p.client][p.i]
		t := e.w.tenants[q.tenant]
		g, err := graph(t)
		if err != nil {
			return err
		}
		c.attempted++
		res, err := ss.Maximize(g, t.model, q.algo, ss.Options{K: q.k, Epsilon: q.eps, Seed: streamSeed, Workers: e.nproc})
		if err != nil {
			c.fail("oracle %v: %v", q, err)
			continue
		}
		if !answerOf(res).same(ref.ans[p.client][p.i]) {
			c.fail("oracle %v: answer differs from a cold one-shot Maximize", q)
		}
	}

	// Of the picked positions, the two with the fewest seeds are the cheapest
	// to simulate; ties keep the seeded order.
	sort.SliceStable(picked, func(a, b int) bool {
		return sched[picked[a].client][picked[a].i].k < sched[picked[b].client][picked[b].i].k
	})
	for n := 0; n < 2 && n < len(picked); n++ {
		p := picked[n]
		q := sched[p.client][p.i]
		t := e.w.tenants[q.tenant]
		g, err := graph(t)
		if err != nil {
			return err
		}
		a := ref.ans[p.client][p.i]
		c.attempted++
		mean, stderr, err := ss.EvaluateSpread(g, t.model, a.seeds, spreadRuns, r.next(), e.nproc)
		if err != nil {
			c.fail("spread %v: %v", q, err)
			continue
		}
		if dev := math.Abs(mean/a.influence - 1); !(dev <= q.eps+3*stderr/a.influence) {
			c.fail("spread %v: simulated %.1f ± %.1f vs estimate %.1f (off by %.3f)", q, mean, stderr, a.influence, dev)
		}
	}
	return nil
}

// spreadRuns is the Monte-Carlo budget of one spread check.
const spreadRuns = 200
