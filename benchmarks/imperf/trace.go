package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	ss "stopandstare"
	"stopandstare/internal/core"
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
)

// A span is one timed call into a layer, recorded by the benchmark around the
// call (nothing inside the program is instrumented). Times are nanoseconds
// since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Query  int    `json:"query"`  // 0 = not inside a query
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names. A layer's self time is the sum over its spans of the span's
// duration minus the duration of its direct children.
const (
	spanPass     = "pass"             // one traced rep; self time = harness glue
	spanOpen     = "graph.open"       // OpenGraphFile
	spanPlan     = "ris.plan_compile" // Sampler.Plan()
	spanRecover  = "ris.recover"      // ris.Recover
	spanQuery    = "core.query"       // core.DSSAWith / core.SSAWith; self time = core
	spanGenerate = "ris.generate"     // Store.GenerateTo
	spanSpill    = "ris.spill"        // SpilledStore.SpillTo
	spanCoverage = "ris.coverage"     // Store.CoverageRangeSeeds
	spanSolve    = "maxcover.solve"   // maxcover.Solver.Solve
	spanPersist  = "ris.persist"      // PersistentStore.Persist
	spanHTTP     = "http.request"     // client round trip; child = server-reported execution
	spanExecute  = "serving.execute"  // MaximizeResponse.ElapsedMS, end-aligned in its request
)

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	queries int // query ids handed out; unique across the run's passes
}

func (r *recorder) newQuery() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queries++
	return r.queries
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, query int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Query: query, Name: name, Start: now})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

// end closes a span and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	return float64(now-r.spans[id-1].Start) / 1e9
}

// add records a span whose interval is already known.
func (r *recorder) add(name string, parent, query int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Query: query, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return len(r.spans)
}

// selfTimes returns, for the spans with id in (from, to], the self time per
// span name in seconds, and per query id the sum of the self times of the
// query's spans (which equals the query span's duration).
func (r *recorder) selfTimes(from, to int) (byName map[string]float64, byQuery map[int]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range r.spans[from:to] {
		if s.Parent > from {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName = make(map[string]float64)
	byQuery = make(map[int]float64)
	for _, s := range r.spans[from:to] {
		self := float64(s.End-s.Start-child[s.ID]) / 1e9
		byName[s.Name] += self
		if s.Query != 0 {
			byQuery[s.Query] += self
		}
	}
	return byName, byQuery
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeFile writes every span as one JSON object per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// counts are the work counters of one traced pass, taken at the same call
// boundaries as the spans.
type counts struct {
	queries, warm                    int
	dssaSeconds, ssaSeconds          float64 // query spans by algorithm
	dssaGenerate, ssaCore            float64 // ris.generate self under D-SSA; core self under SSA
	generateCalls                    int
	generateSets, generateItems      int64
	coverageCalls                    int
	solveCalls, rescans              int
	scannedSets                      int64
	iterations                       int
	verifySets                       int64
	hitCap                           int
	recoveredSets                    int
	planBytes, storeBytes, storeSets int64 // RR data (resident + spilled) and sets held when each session ended
	spilledBytes, residentBytes      int64
	snapshotBytes, graphMappedBytes  int64
	solvers                          int
}

// passTrace is one traced rep: its pass span, the spans opened under it, and
// its counters. A nil *passTrace is an untraced rep; begin/end do nothing.
type passTrace struct {
	rec  *recorder
	from int // spans of this pass are rec.spans[from:to]
	to   int
	pass int // the pass span
	cnt  counts
}

func newPassTrace(rec *recorder) *passTrace {
	pt := &passTrace{rec: rec, from: rec.len()}
	pt.pass = rec.begin(spanPass, 0, 0)
	return pt
}

// begin opens a span directly under the pass.
func (pt *passTrace) begin(name string) int {
	if pt == nil {
		return 0
	}
	return pt.rec.begin(name, pt.pass, 0)
}

func (pt *passTrace) end(id int) {
	if pt != nil {
		pt.rec.end(id)
	}
}

func (pt *passTrace) endPass() {
	if pt != nil {
		pt.rec.end(pt.pass)
	}
}

// tracedSession is the benchmark's own copy of what stopandstare.Session does
// for a query — one store, per-k incremental solvers with the
// replace-on-restart rule, core.DSSAWith/SSAWith driven through a core.Exec —
// with a span around every call into ris, maxcover and core. It is
// single-caller (Acquire/Release are no-ops). Its answers must be
// bit-identical to Session.Maximize; the harness self-tests and every traced
// run check that.
type tracedSession struct {
	pt      *passTrace
	sampler *ris.Sampler
	store   ris.Store
	seed    uint64
	workers int
	// spillBudget > 0 mirrors SessionOptions.SpillBudgetBytes: the store is
	// built with an unreachable budget so growth never spills on its own, and
	// SpillTo(spillBudget) is called — and timed — right after each growth,
	// which is the same enforce step the store would have run itself.
	spillBudget int64
	stateDir    string
	recovered   int // RR sets restored by ris.Recover

	solvers map[int]*maxcover.Solver
	lru     []int
	query   int // current query span, parent of the Exec spans
	qid     int // current query id
	// Seconds the current query has spent in its Exec spans (none of which
	// has children), and in ris.generate alone: what is left of the query
	// span is core's self time.
	inExec, inGenerate float64
}

// tracedSolverLimit mirrors stopandstare's sessionSolverLimit. Answers do not
// depend on it (Solve ≡ Greedy at any prefix); only how often a k rescans.
const tracedSolverLimit = 16

func newTracedSession(pt *passTrace, g *ss.Graph, model ss.Model, opt ss.SessionOptions) (*tracedSession, error) {
	sampler, err := ris.NewSampler(g, model)
	if err != nil {
		return nil, err
	}
	id := pt.begin(spanPlan)
	sampler.Plan()
	pt.end(id)
	t := &tracedSession{pt: pt, sampler: sampler, seed: opt.Seed,
		workers: opt.Workers, spillBudget: opt.SpillBudgetBytes, stateDir: opt.StateDir,
		solvers: make(map[int]*maxcover.Solver)}
	sopt := ris.StoreOptions{Workers: opt.Workers, SpillDir: opt.SpillDir}
	if opt.SpillBudgetBytes > 0 {
		sopt.SpillBudgetBytes = math.MaxInt64
	}
	if opt.StateDir != "" {
		id := pt.begin(spanRecover)
		st, info, err := ris.Recover(sampler, opt.Seed, sopt, opt.StateDir)
		pt.end(id)
		if err != nil {
			return nil, fmt.Errorf("traced recover: %w", err)
		}
		t.store, t.recovered = st, info.Sets
		t.pt.cnt.recoveredSets += info.Sets
		t.pt.cnt.snapshotBytes = info.SnapshotBytes
	} else {
		t.store = ris.NewStore(sampler, opt.Seed, sopt)
	}
	return t, nil
}

func (t *tracedSession) Maximize(q ss.Query) (*ss.Result, error) {
	t.qid = t.pt.rec.newQuery()
	copt := core.Options{K: q.K, Epsilon: q.Epsilon, Delta: q.Delta, Seed: t.seed, Workers: t.workers}
	t.inExec, t.inGenerate = 0, 0
	t.query = t.pt.rec.begin(spanQuery, t.pt.pass, t.qid)
	var cres *core.Result
	var err error
	if q.Algorithm == ss.SSA {
		cres, err = core.SSAWith(copt, t)
	} else {
		cres, err = core.DSSAWith(copt, t)
	}
	total := t.pt.rec.end(t.query)
	if err != nil {
		return nil, err
	}
	c := &t.pt.cnt
	c.queries++
	if q.Algorithm == ss.SSA {
		c.ssaSeconds += total
		c.ssaCore += total - t.inExec
	} else {
		c.dssaSeconds += total
		c.dssaGenerate += t.inGenerate
	}
	if !cres.Grew {
		c.warm++
	}
	c.iterations += cres.Iterations
	c.verifySets += cres.VerifySamples
	if cres.HitCap {
		c.hitCap++
	}
	return &ss.Result{Seeds: cres.Seeds, InfluenceEstimate: cres.Influence,
		Samples: cres.TotalSamples, Iterations: cres.Iterations, HitCap: cres.HitCap,
		MemoryBytes: cres.MemoryBytes, Elapsed: cres.Elapsed, Warm: !cres.Grew}, nil
}

// Persist snapshots the store into the state directory.
func (t *tracedSession) Persist() error {
	ps, ok := t.store.(ris.PersistentStore)
	if !ok {
		return fmt.Errorf("traced persist: store is not persistent")
	}
	id := t.pt.rec.begin(spanPersist, 0, 0) // after the pass, so not its child
	info, err := ps.Persist(t.stateDir)
	t.pt.rec.end(id)
	t.pt.cnt.snapshotBytes = info.Bytes
	return err
}

// finish folds the session's end-of-pass sizes into the counters.
func (t *tracedSession) finish() {
	c := &t.pt.cnt
	c.planBytes = t.sampler.PlanBytes()
	resident := t.store.Bytes() - c.planBytes
	c.residentBytes += resident
	c.storeBytes += resident
	if sp, ok := t.store.(ris.SpilledStore); ok {
		spilled := sp.SpillStats().SpilledBytes
		c.spilledBytes += spilled
		c.storeBytes += spilled
	}
	c.storeSets += int64(t.store.Len())
	c.solvers += len(t.solvers)
}

// core.Exec.

func (t *tracedSession) Store() ris.Store { return t.store }
func (t *tracedSession) Acquire()         {}
func (t *tracedSession) Release()         {}

func (t *tracedSession) Ensure(target int) bool {
	if t.store.Len() >= target {
		return false
	}
	sets, items := t.store.Len(), t.store.Items()
	id := t.pt.rec.begin(spanGenerate, t.query, t.qid)
	t.store.GenerateTo(target)
	d := t.pt.rec.end(id)
	t.inExec += d
	t.inGenerate += d
	t.pt.cnt.generateCalls++
	t.pt.cnt.generateSets += int64(t.store.Len() - sets)
	t.pt.cnt.generateItems += t.store.Items() - items
	if t.spillBudget > 0 {
		id := t.pt.rec.begin(spanSpill, t.query, t.qid)
		// A failed spill leaves the store resident and consistent; the
		// answer check still holds, so the error only shows as ris.spilled_mb.
		_ = t.store.(ris.SpilledStore).SpillTo(t.spillBudget)
		t.inExec += t.pt.rec.end(id)
	}
	return true
}

func (t *tracedSession) Solve(upto, k int) maxcover.Result {
	sol, ok := t.solvers[k]
	if ok {
		for i, kk := range t.lru {
			if kk == k {
				t.lru = append(append(t.lru[:i], t.lru[i+1:]...), k)
				break
			}
		}
	} else {
		sol = maxcover.NewSolver(t.store)
		t.solvers[k] = sol
		t.lru = append(t.lru, k)
		if len(t.lru) > tracedSolverLimit {
			delete(t.solvers, t.lru[0])
			t.lru = t.lru[1:]
		}
	}
	if upto < sol.Scanned() {
		// The query's schedule restarts below the scanned prefix: replace the
		// solver so this query's checkpoints fold the stream in once
		// (sessionEnv.Solve's rule).
		sol = maxcover.NewSolver(t.store)
		t.solvers[k] = sol
		t.pt.cnt.rescans++
	}
	before := sol.Scanned()
	id := t.pt.rec.begin(spanSolve, t.query, t.qid)
	res := sol.Solve(upto, k)
	t.inExec += t.pt.rec.end(id)
	t.pt.cnt.solveCalls++
	t.pt.cnt.scannedSets += int64(sol.Scanned() - before)
	return res
}

func (t *tracedSession) Coverage(seeds []uint32, from, to int) int64 {
	id := t.pt.rec.begin(spanCoverage, t.query, t.qid)
	n := t.store.CoverageRangeSeeds(seeds, from, to)
	t.inExec += t.pt.rec.end(id)
	t.pt.cnt.coverageCalls++
	return n
}
