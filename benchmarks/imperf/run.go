package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	ss "stopandstare"
)

// answer is what the answer check compares: the fields the repo's
// bit-identity contract covers, however the answer travelled.
type answer struct {
	seeds      []uint32
	influence  float64
	samples    int64
	iterations int
	warm       bool
	coalesced  bool
}

func answerOf(r *ss.Result) answer {
	return answer{seeds: r.Seeds, influence: r.InfluenceEstimate, samples: r.Samples,
		iterations: r.Iterations, warm: r.Warm, coalesced: r.Coalesced}
}

// same reports whether two answers agree on every contract field.
func (a answer) same(b answer) bool {
	return slices.Equal(a.seeds, b.seeds) && a.influence == b.influence &&
		a.samples == b.samples && a.iterations == b.iterations
}

// mode selects how a rep's queries reach the program.
type mode int

const (
	modeLive   mode = iota // the public surface: Maximize / Session / HTTP
	modeTraced             // tracedSession: the benchmark's timed wrappers, one caller
	modeDirect             // kindServe only: Manager.Maximize without HTTP
)

// stack is what one rep builds at its fresh start and then queries.
type stack interface {
	// answer serves one query for one client.
	answer(client int, q query) (answer, error)
	// finish runs after the last answer, outside run_s (a traced durable
	// pass's final Persist, the server's /stats read).
	finish() error
	// close tears the stack down so the next rep starts fresh.
	close()
}

// env is one run's working state: the workload, where its files live, and
// the byte budgets derived in setup.
type env struct {
	w       *spec
	nproc   int
	dir     string // graph files, spill files, snapshot dirs
	spill   string // SpillDir of every session
	rec     *recorder
	recover struct {
		pristine string // snapshot written by setup, copied per rep
		state    string // the rep's StateDir
		budget   int64  // SpillBudgetBytes
		sets     int    // RR sets in the pristine snapshot
	}
}

func newEnv(w *spec, nproc int, dir string) (*env, error) {
	e := &env{w: w, nproc: nproc, dir: dir, spill: filepath.Join(dir, "spill")}
	e.recover.pristine = filepath.Join(dir, "pristine")
	e.recover.state = filepath.Join(dir, "state")
	return e, os.MkdirAll(e.spill, 0o755)
}

// setupTimes are the parts of one setup, for setup_s and the graph layer.
type setupTimes struct {
	total, generate, write time.Duration
}

// setup writes every input the reps read: one .sasg per preset and, for the
// durable workload, a pristine snapshot grown cold by the seed query. It
// overwrites what an earlier call wrote, so it can be timed several times.
func (e *env) setup() (setupTimes, error) {
	var st setupTimes
	start := time.Now()
	done := map[string]bool{}
	for _, t := range e.w.tenants {
		if done[t.file()] {
			continue
		}
		done[t.file()] = true
		t0 := time.Now()
		g, err := ss.GeneratePreset(t.preset, t.scale, datasetSeed)
		if err != nil {
			return st, fmt.Errorf("setup %s: %w", t.name, err)
		}
		t1 := time.Now()
		if err := g.WriteMappedFile(filepath.Join(e.dir, t.file())); err != nil {
			return st, fmt.Errorf("setup %s: %w", t.name, err)
		}
		st.generate += t1.Sub(t0)
		st.write += time.Since(t1)
	}
	if e.w.kind == kindRecover {
		if err := e.growPristine(); err != nil {
			return st, err
		}
	}
	st.total = time.Since(start)
	return st, nil
}

// growPristine grows a cold durable session with the seed query and persists
// it; the spill budget of the reps is a fixed share of that store.
func (e *env) growPristine() error {
	if err := os.RemoveAll(e.recover.pristine); err != nil {
		return err
	}
	t := e.w.tenants[0]
	g, err := ss.OpenGraphFile(filepath.Join(e.dir, t.file()))
	if err != nil {
		return err
	}
	defer g.Close()
	defer ss.DropCachedPlans(g)
	sess, err := ss.NewSession(g, t.model, ss.SessionOptions{Seed: streamSeed, Workers: e.nproc, StateDir: e.recover.pristine})
	if err != nil {
		return err
	}
	q := e.w.seedQuery
	if _, err := sess.Maximize(ss.Query{Algorithm: q.algo, K: q.k, Epsilon: q.eps}); err != nil {
		return fmt.Errorf("setup growth: %w", err)
	}
	st := sess.Stats()
	e.recover.budget, e.recover.sets = st.StoreBytes/e.w.spillDiv, st.Samples
	if _, err := sess.Persist(); err != nil {
		return fmt.Errorf("setup persist: %w", err)
	}
	return nil
}

// freshState replaces the traced rep's StateDir with a copy of the pristine
// snapshot (untimed), because a traced rep ends with a Persist. An untraced
// rep only reads its StateDir, so it recovers from the pristine one directly
// and the run writes 128 MB less per rep: the writeback otherwise slows later
// reps by a tenth.
func (e *env) freshState() error {
	if err := os.RemoveAll(e.recover.state); err != nil {
		return err
	}
	if err := os.MkdirAll(e.recover.state, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(e.recover.pristine)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(e.recover.pristine, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(e.recover.state, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// sessionOptions are the SessionOptions every session of the workload uses in
// mode m.
func (e *env) sessionOptions(m mode) ss.SessionOptions {
	opt := ss.SessionOptions{Seed: streamSeed, Workers: e.nproc, SpillDir: e.spill}
	switch e.w.kind {
	case kindRecover:
		opt.StateDir = e.recover.pristine
		if m == modeTraced {
			opt.StateDir = e.recover.state
		}
		opt.SpillBudgetBytes = e.recover.budget
	case kindServe:
		opt.SpillBudgetBytes = e.w.serveSpillBudget
	}
	return opt
}

// repResult is one rep: a fresh start followed by one pass over the schedule.
type repResult struct {
	firstAnswer time.Duration     // fresh start → first answer received
	run         time.Duration     // first query issued → last answer received
	total       time.Duration     // fresh start → last answer received
	peakRSS     float64           // VmHWM in MB when the last answer arrived
	rssReset    bool              // the high-water mark was restarted at the fresh start
	lat         [][]time.Duration // [client][position]
	ans         [][]answer
	errs        []string // one per failed operation
	trace       *passTrace
	serving     *servingStats
}

// runRep does one rep in the given mode. Concurrent clients (kindServe, live
// or direct) each walk their own list; every other combination has one
// caller, which takes the clients' lists round-robin.
func (e *env) runRep(m mode, sched [][]query) (*repResult, error) {
	if e.w.kind == kindRecover && m == modeTraced {
		if err := e.freshState(); err != nil {
			return nil, err
		}
	}
	res := &repResult{lat: make([][]time.Duration, len(sched)), ans: make([][]answer, len(sched))}
	for c := range sched {
		res.lat[c] = make([]time.Duration, len(sched[c]))
		res.ans[c] = make([]answer, len(sched[c]))
	}
	// Collect the previous rep's garbage, hand it back to the OS and restart
	// the resident-set high-water mark, so every rep starts from the same
	// resident set and its peak is its own.
	res.rssReset = resetPeakRSS()
	t0 := time.Now()
	st, err := e.newStack(m, res)
	if err != nil {
		return nil, err
	}
	defer st.close()

	var mu sync.Mutex
	var first, last time.Time
	var housekeeping time.Duration
	ask := func(c, i int) {
		if e.w.kind == kindCold && i > 0 {
			// A cold one-shot run starts in a process of its own, not on top
			// of the previous position's store as garbage of an age that
			// depends on the seeded order: collected first, the reps of a run
			// agree on their peak RSS within 2 %, uncollected within 12 %. The
			// collection is the harness's time and is taken out of run_s.
			t := time.Now()
			runtime.GC()
			housekeeping += time.Since(t)
		}
		t := time.Now()
		a, err := st.answer(c, sched[c][i])
		end := time.Now()
		res.lat[c][i] = end.Sub(t)
		res.ans[c][i] = a
		mu.Lock()
		if err != nil {
			res.errs = append(res.errs, fmt.Sprintf("client %d position %d %v: %v", c, i, sched[c][i], err))
		}
		if first.IsZero() || end.Before(first) {
			first = end
		}
		if end.After(last) {
			last = end
		}
		mu.Unlock()
	}
	tq := time.Now()
	if e.w.kind == kindServe && m != modeTraced {
		var wg sync.WaitGroup
		for c := range sched {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := range sched[c] {
					ask(c, i)
				}
			}(c)
		}
		wg.Wait()
	} else {
		for i := 0; ; i++ {
			asked := false
			for c := range sched {
				if i < len(sched[c]) {
					ask(c, i)
					asked = true
				}
			}
			if !asked {
				break
			}
		}
	}
	res.firstAnswer, res.run, res.total = first.Sub(t0), last.Sub(tq)-housekeeping, last.Sub(t0)-housekeeping
	res.peakRSS = peakRSSMB()
	if e.w.kind == kindRecover && !res.ans[0][0].warm {
		res.errs = append(res.errs, fmt.Sprintf("%v was not answered warm from the recovered RR sets", sched[0][0]))
	}
	if err := st.finish(); err != nil {
		res.errs = append(res.errs, fmt.Sprintf("finish: %v", err))
	}
	return res, nil
}

func (e *env) newStack(m mode, res *repResult) (stack, error) {
	if e.w.kind == kindServe && m != modeTraced {
		return newServeStack(e, m, res)
	}
	return newSessionStack(e, m, res)
}

// maximizer is the part of a session the session stack drives; both
// *stopandstare.Session and *tracedSession have it.
type maximizer interface {
	Maximize(q ss.Query) (*ss.Result, error)
}

// sessionStack serves queries from in-process sessions: fresh one-shot runs
// (kindCold), or one session per tenant built on first use and kept for the
// pass.
type sessionStack struct {
	e      *env
	m      mode
	graphs map[string]*ss.Graph
	sess   []maximizer // per tenant; unused for kindCold
	pt     *passTrace  // modeTraced only
}

func newSessionStack(e *env, m mode, res *repResult) (*sessionStack, error) {
	s := &sessionStack{e: e, m: m, graphs: map[string]*ss.Graph{}, sess: make([]maximizer, len(e.w.tenants))}
	if m == modeTraced {
		s.pt = newPassTrace(e.rec)
		res.trace = s.pt
	}
	for _, t := range e.w.tenants {
		if s.graphs[t.file()] != nil {
			continue
		}
		id := s.pt.begin(spanOpen)
		g, err := ss.OpenGraphFile(filepath.Join(e.dir, t.file()))
		s.pt.end(id)
		if err != nil {
			s.close()
			return nil, err
		}
		s.graphs[t.file()] = g
		if s.pt != nil {
			s.pt.cnt.graphMappedBytes += g.MappedBytes()
		}
	}
	// A workload with one tenant builds its session before the first query,
	// so recovery and plan compilation are in first_answer_ms, not run_s.
	if e.w.kind != kindCold && len(e.w.tenants) == 1 {
		mx, err := s.session(0)
		if err != nil {
			s.close()
			return nil, err
		}
		// Session recovery is best-effort: a snapshot that no longer matches
		// starts the session cold, and a cold session gives the same answers.
		// So that the workload cannot turn into cold growth unnoticed, a rep
		// that did not recover the whole snapshot is a failed operation.
		if e.w.kind == kindRecover {
			if got := recoveredSets(mx); got != e.recover.sets {
				res.errs = append(res.errs, fmt.Sprintf("session recovered %d RR sets, the snapshot holds %d", got, e.recover.sets))
			}
		}
	}
	return s, nil
}

func recoveredSets(mx maximizer) int {
	if t, ok := mx.(*tracedSession); ok {
		return t.recovered
	}
	return mx.(*ss.Session).Stats().Recovered
}

// session returns tenant ti's session, building it on first use.
func (s *sessionStack) session(ti int) (maximizer, error) {
	if s.sess[ti] != nil {
		return s.sess[ti], nil
	}
	mx, err := s.build(ti)
	if err != nil {
		return nil, err
	}
	s.sess[ti] = mx
	return mx, nil
}

func (s *sessionStack) build(ti int) (maximizer, error) {
	t := s.e.w.tenants[ti]
	g := s.graphs[t.file()]
	opt := s.e.sessionOptions(s.m)
	if s.m == modeTraced {
		return newTracedSession(s.pt, g, t.model, opt)
	}
	return ss.NewSession(g, t.model, opt)
}

func (s *sessionStack) answer(_ int, q query) (answer, error) {
	var (
		r   *ss.Result
		err error
	)
	sq := ss.Query{Algorithm: q.algo, K: q.k, Epsilon: q.eps}
	switch {
	case s.e.w.kind != kindCold:
		var mx maximizer
		if mx, err = s.session(q.tenant); err == nil {
			r, err = mx.Maximize(sq)
		}
	case s.m == modeTraced:
		// A one-shot run is a session that serves one query.
		var mx maximizer
		if mx, err = s.build(q.tenant); err == nil {
			r, err = mx.Maximize(sq)
			mx.(*tracedSession).finish()
		}
	default:
		t := s.e.w.tenants[q.tenant]
		r, err = ss.Maximize(s.graphs[t.file()], t.model, q.algo,
			ss.Options{K: q.k, Epsilon: q.eps, Seed: streamSeed, Workers: s.e.nproc})
	}
	if err != nil {
		return answer{}, err
	}
	return answerOf(r), nil
}

// finish closes a traced pass: the durable workload's final Persist (a layer
// metric only, so untraced reps skip it) and the end-of-pass sizes.
func (s *sessionStack) finish() error {
	if s.pt == nil {
		return nil
	}
	s.pt.endPass()
	var err error
	for _, mx := range s.sess {
		if t, ok := mx.(*tracedSession); ok {
			if s.e.w.kind == kindRecover {
				err = t.Persist()
			}
			t.finish()
		}
	}
	s.pt.to = s.pt.rec.len()
	return err
}

func (s *sessionStack) close() {
	for _, g := range s.graphs {
		ss.DropCachedPlans(g)
		g.Close()
	}
}
