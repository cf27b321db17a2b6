package stopandstare_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"stopandstare"
)

// TestSessionConcurrentQueries hammers one Session with a mixed concurrent
// workload — read-only repeats that share the read lock, ε-tightened and
// larger-k queries that grow the store mid-flight, SSA and D-SSA
// interleaved, duplicate queries racing on the same greedy runs, and
// Stats snapshots — and then checks every query still returned exactly its
// cold-run result. CI runs the whole test step under -race, so this is
// both the locking-discipline proof and a determinism-under-concurrency
// proof: if growth, solver reuse or coverage scratch ever leaked across
// queries, some replica would drift from its cold twin.
func TestSessionConcurrentQueries(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(400, 2400, 2.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 11
	sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{
		Seed: seed, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm a prefix so part of the workload is read-only from the start.
	if _, err := sess.Maximize(stopandstare.Query{K: 6, Epsilon: 0.35}); err != nil {
		t.Fatal(err)
	}

	// Job 0 is an exact repeat of the warm-up: it can never grow the store,
	// so every replica must report Warm even while other jobs grow it.
	jobs := []sessionQuery{
		{stopandstare.DSSA, 6, 0.35}, // exact repeat: read-only
		{stopandstare.DSSA, 6, 0.25}, // same k, tighter ε: grows the store
		{stopandstare.DSSA, 9, 0.3},  // new k, new ε: new prefixes, likely read-only
		{stopandstare.SSA, 4, 0.3},   // SSA shares the same stream
		{stopandstare.SSA, 6, 0.35},  // SSA racing DSSA at k=6
		{stopandstare.DSSA, 2, 0.4},  // small query riding along
	}
	const replicas = 3 // duplicates race on the same runs
	results := make([][]*stopandstare.Result, len(jobs))
	for i := range results {
		results[i] = make([]*stopandstare.Result, replicas)
	}

	var wg sync.WaitGroup
	for ji, q := range jobs {
		for rep := 0; rep < replicas; rep++ {
			wg.Add(1)
			go func(ji, rep int, q sessionQuery) {
				defer wg.Done()
				res, err := sess.Maximize(stopandstare.Query{Algorithm: q.algo, K: q.k, Epsilon: q.eps})
				if err != nil {
					t.Errorf("job %d rep %d: %v", ji, rep, err)
					return
				}
				results[ji][rep] = res
			}(ji, rep, q)
		}
	}
	// Stats must be safe concurrently with queries and growth.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				st := sess.Stats()
				if st.Samples < 0 || st.StoreBytes < 0 {
					t.Errorf("stats snapshot corrupt: %+v", st)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for ji, q := range jobs {
		ctx := fmt.Sprintf("job %d (%s k=%d eps=%v)", ji, q.algo, q.k, q.eps)
		cold, err := stopandstare.Maximize(g, stopandstare.IC, q.algo, stopandstare.Options{
			K: q.k, Epsilon: q.eps, Seed: seed, Workers: 2,
		})
		if err != nil {
			t.Fatalf("%s: cold: %v", ctx, err)
		}
		for rep, res := range results[ji] {
			if !slices.Equal(res.Seeds, cold.Seeds) || res.Samples != cold.Samples ||
				res.InfluenceEstimate != cold.InfluenceEstimate {
				t.Fatalf("%s rep %d: %v/%d/%v differs from cold %v/%d/%v", ctx, rep,
					res.Seeds, res.Samples, res.InfluenceEstimate,
					cold.Seeds, cold.Samples, cold.InfluenceEstimate)
			}
			if ji == 0 && !res.Warm {
				t.Fatalf("%s rep %d: exact-repeat query reported Warm=false", ctx, rep)
			}
		}
	}

	if st := sess.Stats(); st.Queries != int64(1+len(jobs)*replicas) {
		t.Fatalf("queries counter %d, want %d", st.Queries, 1+len(jobs)*replicas)
	}
}

// TestSessionConcurrentSharedCheckpoints races queries that differ only in
// k: at one ε, D-SSA schedules with the same iteration cap visit the same
// prefixes, so the goroutines extend, copy from or wait on the same few
// greedy runs — the sharing the session's solver exists for. Rounds alternate between a cold
// session (runs are created and extended under contention, while the store
// grows) and the same session warm (pure copy-out). Under -race this is the
// proof of the solver's two-level locking; the comparison with cold runs is
// the proof that a run resumed by one query is exact for another.
func TestSessionConcurrentSharedCheckpoints(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(400, 2400, 2.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	const seed, eps = 11, 0.3
	ks := []int{1, 2, 3, 5, 8, 13, 21, 34}
	colds := make([]*stopandstare.Result, len(ks))
	for i, k := range ks {
		if colds[i], err = stopandstare.Maximize(g, stopandstare.IC, stopandstare.DSSA,
			stopandstare.Options{K: k, Epsilon: eps, Seed: seed, Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // cold, then warm
			var wg sync.WaitGroup
			for i, k := range ks {
				wg.Add(1)
				go func(i, k int) {
					defer wg.Done()
					res, err := sess.Maximize(stopandstare.Query{K: k, Epsilon: eps})
					if err != nil {
						t.Errorf("k=%d: %v", k, err)
						return
					}
					cold := colds[i]
					if !slices.Equal(res.Seeds, cold.Seeds) || res.Samples != cold.Samples ||
						res.InfluenceEstimate != cold.InfluenceEstimate || res.Iterations != cold.Iterations {
						t.Errorf("round %d pass %d k=%d: %v/%d/%v differs from cold %v/%d/%v", round, pass, k,
							res.Seeds, res.Samples, res.InfluenceEstimate,
							cold.Seeds, cold.Samples, cold.InfluenceEstimate)
					}
					if pass == 1 && !res.Warm {
						t.Errorf("round %d k=%d: second pass was not warm", round, k)
					}
				}(i, k)
			}
			wg.Wait()
		}
		// The checkpoint unit depends on k only through the integer iteration
		// cap, so the eight schedules fall into fewer families, and a family
		// keeps one run per checkpoint of its longest query.
		checkpoints := 0
		for _, c := range colds {
			checkpoints += c.Iterations
		}
		if st := sess.Stats(); st.Solvers*2 > checkpoints {
			t.Fatalf("round %d: %d runs retained for %d checkpoints: the k do not share prefixes",
				round, st.Solvers, checkpoints)
		}
	}
}
