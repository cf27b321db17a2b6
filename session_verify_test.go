package stopandstare_test

import (
	"fmt"
	"sync"
	"testing"

	"stopandstare"
)

// This file extends the session differential harness to the verification
// store, where a long-lived session keeps SSA's Estimate-Inf sets. An SSA
// query answered from it must equal the one-shot Maximize, which streams
// those sets, after the store was spilled, after the session was recovered
// from a snapshot (which does not hold it), and under concurrent queries.

// ssaQueries is the SSA stream of the legs: repeats, k refinements and ε
// changes, so later queries both reuse and extend the verification store.
var ssaQueries = []sessionQuery{
	{stopandstare.SSA, 4, 0.3}, {stopandstare.SSA, 4, 0.3}, {stopandstare.SSA, 8, 0.3},
	{stopandstare.SSA, 2, 0.25}, {stopandstare.SSA, 8, 0.4}, {stopandstare.SSA, 10, 0.25},
}

// oneShotOracle answers each query once with a one-shot Maximize and caches
// the answer with its checkpoint trace.
type oneShotOracle struct {
	t    *testing.T
	g    *stopandstare.Graph
	seed uint64
	mu   sync.Mutex
	memo map[sessionQuery]oneShotAnswer
}

type oneShotAnswer struct {
	res   *stopandstare.Result
	trace []stopandstare.Checkpoint
}

func (o *oneShotOracle) answer(q sessionQuery) oneShotAnswer {
	o.mu.Lock()
	defer o.mu.Unlock()
	if a, ok := o.memo[q]; ok {
		return a
	}
	var a oneShotAnswer
	var err error
	a.res, err = stopandstare.Maximize(o.g, stopandstare.IC, q.algo, stopandstare.Options{
		K: q.k, Epsilon: q.eps, Seed: o.seed, Workers: 2,
		OnCheckpoint: func(cp stopandstare.Checkpoint) { a.trace = append(a.trace, cp) },
	})
	if err != nil {
		o.t.Fatalf("one-shot %+v: %v", q, err)
	}
	o.memo[q] = a
	return a
}

// check runs q on sess and compares it with the one-shot answer.
func (o *oneShotOracle) check(ctx string, sess *stopandstare.Session, q sessionQuery) {
	o.t.Helper()
	var trace []stopandstare.Checkpoint
	res, err := sess.Maximize(stopandstare.Query{Algorithm: q.algo, K: q.k, Epsilon: q.eps,
		OnCheckpoint: func(cp stopandstare.Checkpoint) { trace = append(trace, cp) }})
	if err != nil {
		o.t.Fatalf("%s: %v", ctx, err)
	}
	want := o.answer(q)
	assertSameResult(o.t, ctx, res, want.res, trace, want.trace)
}

func TestSessionVerifyStoreDifferential(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(400, 2400, 2.1, 17)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 23
	oracle := &oneShotOracle{t: t, g: g, seed: seed, memo: map[sessionQuery]oneShotAnswer{}}

	t.Run("spilled", func(t *testing.T) {
		sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{
			Seed: seed, Workers: 2, SpillBudgetBytes: 1 << 30, SpillDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range ssaQueries[:3] {
			oracle.check(fmt.Sprintf("spilled/before q%d", i), sess, q)
		}
		before := sess.Stats()
		if _, err := sess.SpillTo(0); err != nil {
			t.Fatal(err)
		}
		after := sess.Stats()
		if before.VerifySamples == 0 || after.VerifyBytes >= before.VerifyBytes || after.StoreSpilledBytes == 0 {
			t.Fatalf("SpillTo(0) left the verification store resident: before %+v, after %+v", before, after)
		}
		for i, q := range ssaQueries {
			oracle.check(fmt.Sprintf("spilled/after q%d", i), sess, q)
		}
	})

	t.Run("recovered", func(t *testing.T) {
		dir := t.TempDir()
		opt := stopandstare.SessionOptions{Seed: seed, Workers: 2, StateDir: dir}
		sess, err := stopandstare.NewSession(g, stopandstare.IC, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range ssaQueries[:3] {
			oracle.check(fmt.Sprintf("recovered/before q%d", i), sess, q)
		}
		if _, err := sess.Persist(); err != nil {
			t.Fatal(err)
		}
		rec, err := stopandstare.NewSession(g, stopandstare.IC, opt)
		if err != nil {
			t.Fatal(err)
		}
		if st := rec.Stats(); st.Recovered == 0 || st.VerifySamples != 0 {
			t.Fatalf("recovered session: %+v, want recovered coverage sets and no verification sets", st)
		}
		for i, q := range ssaQueries {
			oracle.check(fmt.Sprintf("recovered/after q%d", i), rec, q)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range ssaQueries {
			oracle.answer(q) // one-shot answers first, so the workers only query
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < len(ssaQueries); i++ {
					q := ssaQueries[(i+w)%len(ssaQueries)]
					res, err := sess.Maximize(stopandstare.Query{Algorithm: q.algo, K: q.k, Epsilon: q.eps})
					if err != nil {
						t.Errorf("worker %d %+v: %v", w, q, err)
						return
					}
					if want := oracle.answer(q).res; fmt.Sprint(res.Seeds) != fmt.Sprint(want.Seeds) ||
						res.Samples != want.Samples || res.InfluenceEstimate != want.InfluenceEstimate {
						t.Errorf("worker %d %+v: %v/%d/%v, one-shot %v/%d/%v", w, q, res.Seeds, res.Samples,
							res.InfluenceEstimate, want.Seeds, want.Samples, want.InfluenceEstimate)
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

// TestSessionVerifyStats pins the verification store's accounting: it is
// counted in StoreBytes and reported as VerifySamples/VerifyBytes, its
// growth leaves Growths (the coverage store's counter) alone, and a query
// that grew only it is not Warm, while its repeat is.
func TestSessionVerifyStats(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(400, 2400, 2.1, 19)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A tight D-SSA query grows the coverage store past what the SSA query
	// below needs.
	if _, err := sess.Maximize(stopandstare.Query{K: 5, Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	before := sess.Stats()
	if before.VerifySamples != 0 || before.VerifyBytes != 0 {
		t.Fatalf("D-SSA query touched the verification store: %+v", before)
	}
	q := stopandstare.Query{Algorithm: stopandstare.SSA, K: 5, Epsilon: 0.3}
	res, err := sess.Maximize(q)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Growths != before.Growths || st.Samples != before.Samples {
		t.Fatalf("the SSA query grew the coverage store (%d → %d sets); the test needs it warm",
			before.Samples, st.Samples)
	}
	if res.Warm || st.VerifySamples == 0 || st.VerifyBytes <= 0 ||
		st.StoreBytes != before.StoreBytes+st.VerifyBytes {
		t.Fatalf("verification growth: Warm %v, before %+v, after %+v", res.Warm, before, st)
	}
	again, err := sess.Maximize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Warm || sess.Stats().VerifySamples != st.VerifySamples {
		t.Fatalf("repeat SSA query: Warm %v, verification sets %d → %d", again.Warm,
			st.VerifySamples, sess.Stats().VerifySamples)
	}
}
