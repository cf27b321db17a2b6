package stopandstare

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"

	"stopandstare/internal/core"
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
	"stopandstare/internal/tvm"
)

// Session is a long-lived, concurrency-safe serving object for a stream of
// influence-maximization queries against one (graph, model). It owns:
//
//   - one sampler whose compiled ris.Plan lives on the graph, so every
//     session and one-shot run on the same graph compiles the plan exactly
//     once;
//   - one persistent RR-set store that only ever grows: a query's doubling
//     loop tops up past the current stream length and never resamples a
//     prefix — D-SSA's "no sample is discarded" principle extended across
//     runs;
//   - one max-coverage solver for every k, caching a resumable greedy run
//     per checkpoint prefix: a query whose checkpoints an earlier query
//     (at any k) already solved copies the picks, and a larger k resumes
//     the run where the smaller one stopped;
//   - a second, verification store holding SSA's Estimate-Inf sets. Every
//     SSA query tests the same verification ids from 0 up, so the first
//     one that reaches an id samples it and later ones read the seeds'
//     postings instead of sampling the sets again. It is flat and
//     in-process, created by the first SSA query, grown under the query's
//     context and the session's spill budget, counted in StoreBytes, and
//     not persisted: a recovered session regrows it on demand. A one-shot
//     Maximize's session keeps none and scans each window instead.
//
// Because RR set i is a pure function of (seed, i), warm reuse is not an
// approximation: Session.Maximize returns results bit-identical — Seeds,
// Coverage, sample counts, checkpoint traces — to a cold Maximize call with
// the same SessionOptions and Query. Only MemoryBytes (the warm store is
// larger) and Elapsed differ.
//
// Concurrency: any number of Maximize calls may run in parallel. Queries
// that need no store growth share a read lock and proceed concurrently
// (each coverage walk uses pooled per-query scratch); a query that must
// grow the stream briefly takes the write lock per top-up. Selection
// serializes per checkpoint prefix: queries wait for each other only while
// one of them extends a greedy run the other needs.
type Session struct {
	opt     SessionOptions
	sopt    ris.StoreOptions // options of both RR stores
	g       *Graph
	sampler *ris.Sampler
	inst    *tvm.Instance // non-nil for weighted (TVM) sessions
	store   ris.Store
	verify  *verifyStore // SSA's Estimate-Inf sets

	mu      sync.RWMutex     // store growth: writers top up, readers query
	solver  *maxcover.Solver // one for every k; locks itself
	queries atomic.Int64
	growths atomic.Int64
	grown   growthCounters // summed over both stores' top-ups

	recovered     int          // RR sets restored from a snapshot at build
	snapshotBytes atomic.Int64 // last committed/recovered snapshot file size
}

// verifyStore is a Session's Estimate-Inf stream, with its own lock so SSA
// verification never waits on coverage growth or the reverse. Where a
// caller holds both locks, Session.mu is taken first.
type verifyStore struct {
	mu      sync.RWMutex
	store   ris.Store    // nil until the first retained window; guarded by mu
	sampler *ris.Sampler // the session sampler's Estimate-Inf stream
	scan    bool         // a one-shot session's: every window is scanned, none kept
}

// windowWords pools the window bitsets (*[]uint64) of every session's
// coverage walks, both stores'. It is package-level on purpose: the runtime
// keeps every pool that has been Put to in its registry until the second GC
// after the last Put, so a pool embedded in a Session would keep the whole
// dropped session — stores, greedy runs, spill and snapshot mappings — alive
// one GC cycle longer than its last reference.
var windowWords = sync.Pool{New: func() any { return new([]uint64) }}

// retainedIDs is the verification id range a store can hold (ids are int32
// there); windows reaching past it are scanned. A variable only so tests
// can lower it.
var retainedIDs = ris.MaxSets

// sessionRunLimit bounds the greedy runs the session's solver retains, so a
// sweeping ε or δ stream cannot grow per-session memory without bound (a run
// holds ~13·NumNodes bytes). Checkpoint prefixes depend on ε, δ and the
// iteration cap but on k only through that cap, so a serving mix of k values
// shares a few dozen; an evicted prefix is solved again on its next use.
const sessionRunLimit = 32

// SessionOptions fixes the per-session parameters: everything that selects
// the RR-sample stream itself. Queries (k, ε, δ, algorithm) vary per call;
// the stream parameters cannot, or warm reuse would not be bit-identical.
type SessionOptions struct {
	// Seed drives the RR stream; RR set i is a pure function of (Seed, i).
	// 0 is a valid seed.
	Seed uint64
	// Workers bounds sampling and index-build parallelism of the session's
	// one in-process RR store (≤0 ⇒ runtime.GOMAXPROCS(0)). Results are
	// bit-identical at every count.
	Workers int
	// SpillBudgetBytes > 0 enables the store's disk spill tier: whenever a
	// top-up leaves more than this many resident RR bytes, the coldest
	// arena extents and CSR index blocks are spilled to disk and served
	// from a read-only mapping. On linux a spilled block holds no resident
	// page once written and checked; a query's read faults in only the
	// pages it touches. Results stay bit-identical at every budget; only
	// residency moves. See ris.StoreOptions.SpillBudgetBytes.
	SpillBudgetBytes int64
	// SpillDir is where spill files are created ("" ⇒ the OS temp dir).
	SpillDir string
	// StateDir, when non-empty, makes the session durable: NewSession
	// recovers the RR store from the directory's committed snapshot (if its
	// seed, model and one-shard topology match — verified, with corrupted
	// block suffixes discarded and resampled deterministically), and
	// Session.Persist writes crash-safe snapshots back. Recovery is
	// best-effort: a missing, mismatched or unreadable snapshot simply
	// starts the session cold; it never blocks serving. A snapshot of a
	// multi-shard or remote-sharded store, which sessions wrote while they
	// had shard options, is such a mismatch: the session starts cold, and
	// its first Persist replaces that snapshot. Results are bit-identical
	// either way — a recovered store holds exactly the sets a cold one
	// would regenerate.
	StateDir string
	// Weights, when non-nil, makes this a weighted (targeted viral
	// marketing) session: roots are drawn proportionally to Weights[v] ≥ 0
	// and results estimate benefit B(S) instead of influence. Must have one
	// entry per node with a positive sum.
	Weights []float64
}

// Query is one influence-maximization request against a Session.
type Query struct {
	// Algorithm must be DSSA (default when empty) or SSA — the two
	// stop-and-stare loops share the session's stream.
	Algorithm Algorithm
	// K is the seed budget (required, 1 ≤ K ≤ n).
	K int
	// Epsilon is the approximation slack; 0 ⇒ 0.1 (the paper's setting).
	Epsilon float64
	// Delta is the failure probability; 0 ⇒ 1/n.
	Delta float64
	// Eps1, Eps2, Eps3 optionally fix SSA's ε-split (see Options).
	Eps1, Eps2, Eps3 float64
	// OnCheckpoint, when non-nil, observes every stop-and-stare checkpoint.
	OnCheckpoint func(Checkpoint)
}

// SessionStats is a point-in-time snapshot of a session's resident state,
// with plan and store memory reported separately: the plan is shared by
// every session on one (graph, model), so summing Stats().PlanBytes across
// them would double-count, while StoreBytes is genuinely per-session. The
// serving layer embeds it in each /stats tenant entry under these json
// keys, so a counter declared here reaches /stats with no further code.
type SessionStats struct {
	// Queries is the number of Maximize calls served.
	Queries int64 `json:"queries"`
	// Growths is the number of write-locked store top-ups taken: how many
	// times a query found the stream too short and generated RR sets. The
	// serving layer's request coalescing is pinned against this counter —
	// N concurrent identical queries must grow the store exactly as often
	// as one query alone.
	Growths int64 `json:"growths"`
	// Samples is the number of RR sets resident in the store.
	Samples int `json:"samples"`
	// Items is the total number of node entries across resident RR sets.
	Items int64 `json:"items"`
	// StoreBytes approximates the stores' own RESIDENT memory: arena,
	// offset tables and CSR index blocks held on the heap, of the coverage
	// store and the verification store (VerifyBytes) together — excluding
	// the shared plan and excluding data spilled to disk.
	StoreBytes int64 `json:"store_bytes"`
	// VerifySamples is the number of SSA Estimate-Inf sets the verification
	// store retains (0 until the first SSA query).
	VerifySamples int `json:"verify_samples"`
	// VerifyBytes is the verification store's share of StoreBytes.
	VerifyBytes int64 `json:"verify_bytes"`
	// StoreSpilledBytes is RR data of either store tiered onto the session's
	// spill files and served through a read-only mapping (0 without a
	// spill budget).
	StoreSpilledBytes int64 `json:"store_spilled_bytes,omitempty"`
	// SpillFileBytes is the spill files' on-disk size, headers and
	// alignment padding included (the spill-tier overhead is the difference
	// from StoreSpilledBytes).
	SpillFileBytes int64 `json:"spill_file_bytes,omitempty"`
	// PlanBytes is the compiled sampling plan's memory (0 until the plan is
	// first compiled). Shared per (graph, model).
	PlanBytes int64 `json:"plan_bytes"`
	// GraphResidentBytes is the graph arrays' private heap footprint — the
	// whole graph for built/loaded graphs, 0 for mmap-ed ones. Like
	// PlanBytes it is shared by every session on the same graph object, so
	// summing it across such sessions double-counts.
	GraphResidentBytes int64 `json:"graph_resident_bytes"`
	// GraphMappedBytes is the portion of the graph aliasing a read-only
	// file mapping (graphs opened with OpenGraphFile): paged in on
	// demand and shared across every process serving the same file, so it
	// is reported separately from resident memory.
	GraphMappedBytes int64 `json:"graph_mapped_bytes"`
	// Solvers is the number of greedy runs the session's max-coverage
	// solver retains: one per checkpoint prefix recently solved, shared by
	// every k.
	Solvers int `json:"solvers"`
	// SolverBytes is the exact heap footprint of those runs plus the
	// solver's gain counts. Not part of StoreBytes.
	SolverBytes int64 `json:"solver_bytes"`
	// Recovered is the number of RR sets restored from a StateDir snapshot
	// when the session was built (0 for cold starts and non-durable
	// sessions). Those sets were not resampled: a recovered session's
	// time-to-first-answer is what this bought.
	Recovered int `json:"recovered,omitempty"`
	// SnapshotBytes is the size of the session's current snapshot file —
	// the one recovered from at build, replaced by each successful Persist
	// (0 when neither happened).
	SnapshotBytes int64 `json:"snapshot_bytes,omitempty"`
	// GrowthAllocBytes and GrowthGCCycles sum, over every top-up of either
	// store, the heap bytes allocated and the GC cycles completed while it
	// ran. They are process-wide counters (runtime/metrics) read at each
	// top-up's edges under the store's write lock, so allocation by other
	// goroutines in that interval counts too. Warm queries read nothing.
	GrowthAllocBytes int64 `json:"growth_alloc_bytes"`
	GrowthGCCycles   int64 `json:"growth_gc_cycles"`
}

// NewSession builds a serving session for (g, model). The heavy pieces are
// lazy: the plan compiles (once per graph and model) on first sampling, and
// the store grows on first query. So a graph whose content fails the plan's
// checks is reported by the first query that samples, with an error
// matching ErrBadGraphContent.
func NewSession(g *Graph, model Model, opt SessionOptions) (*Session, error) {
	return newSession(g, model, opt, false)
}

// newSession is NewSession for a long-lived session or, with oneShot, the
// throw-away session of a one-shot Maximize. That one never revisits a
// checkpoint prefix or a verification id, so its solver retains one greedy
// run and it keeps no verification store: SSA scans its Estimate-Inf
// windows (ris.ScanStop on Workers), which holds a cold run's memory to the
// coverage store.
func newSession(g *Graph, model Model, opt SessionOptions, oneShot bool) (*Session, error) {
	if g == nil {
		return nil, fmt.Errorf("stopandstare: nil graph")
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	var (
		sampler *ris.Sampler
		inst    *tvm.Instance
		err     error
	)
	if opt.Weights != nil {
		if inst, err = tvm.NewInstance(g, opt.Weights); err != nil {
			return nil, err
		}
		if sampler, err = inst.Sampler(model); err != nil {
			return nil, err
		}
	} else if sampler, err = ris.NewSampler(g, model); err != nil {
		return nil, err
	}
	s := &Session{
		opt:     opt,
		sopt:    ris.StoreOptions{Workers: opt.Workers, SpillBudgetBytes: opt.SpillBudgetBytes, SpillDir: opt.SpillDir},
		g:       g,
		sampler: sampler,
		inst:    inst,
	}
	if opt.StateDir != "" {
		// Best-effort recovery: a committed, matching snapshot warms the
		// store (corrupt suffixes are discarded and resampled inside
		// Recover); anything else — no snapshot, a multi-shard topology,
		// corrupt beyond the store header — starts cold. Either way the session is
		// usable, and bit-identical to a cold one at every query.
		if st, info, err := ris.Recover(sampler, opt.Seed, s.sopt, opt.StateDir); err == nil {
			s.store = st
			s.recovered = info.Sets
			s.snapshotBytes.Store(info.SnapshotBytes)
		}
	}
	if s.store == nil {
		s.store = ris.NewStore(sampler, opt.Seed, s.sopt)
	}
	runLimit := sessionRunLimit
	if oneShot {
		runLimit = 1
	}
	s.verify = &verifyStore{sampler: sampler.VerifySampler(), scan: oneShot}
	s.solver = maxcover.NewCachedSolver(s.store, runLimit)
	return s, nil
}

// Persist writes a crash-safe snapshot of the session's RR store (the
// coverage store; the verification store is not persisted) into the
// session's StateDir and commits it atomically (snapshot file fsynced, then
// the manifest renamed over the previous one — a crash at any point leaves
// either the old or the new snapshot committed, never a torn mix). It takes
// the session write lock, so it serializes with store growth but not with
// serving reads. Sessions without a StateDir return ris.ErrNoSnapshot.
func (s *Session) Persist() (ris.SnapshotInfo, error) {
	if s.opt.StateDir == "" {
		return ris.SnapshotInfo{}, ris.ErrNoSnapshot
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	info, err := s.store.Persist(s.opt.StateDir)
	if err == nil {
		s.snapshotBytes.Store(info.Bytes)
	}
	return info, err
}

// Maximize serves one query from the session's stream. Repeated or refined
// queries (same k, larger k, tighter ε, other algorithm) pay only for the
// stream suffix beyond what previous queries already generated — often
// nothing — and return exactly what a cold Maximize with the same seed
// would.
func (s *Session) Maximize(q Query) (res *Result, err error) {
	return s.maximize(context.Background(), q)
}

// MaximizeContext is Maximize with cooperative cancellation: when ctx fires
// while the query is growing either RR store, the top-up aborts having
// mutated NOTHING — the stream and its index stay exactly as before, so
// an abandoned query leaves no partial growth behind and the next identical
// query regenerates the same bit-identical sets. SSA's verification stops
// at cancellation too: ctx is checked before every window of verification
// ids, grown or not. Selection and D-SSA's coverage walks run to
// completion; cancellation is honoured at the growth and verification
// boundaries, where all the unbounded work happens.
func (s *Session) MaximizeContext(ctx context.Context, q Query) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.maximize(ctx, q)
}

// growthFailed carries a growth error out of sessionEnv.Ensure (the
// error-free core.Exec surface) to maximize's recover: the query context's
// error, or the plan's content error on a graph that fails its checks.
type growthFailed struct{ err error }

func (s *Session) maximize(ctx context.Context, q Query) (res *Result, err error) {
	// core.Exec.Ensure cannot return an error, so a failed growth
	// arrives as a *growthFailed panic; this is the surface that turns
	// it back into an ordinary error. Lock discipline is panic-safe below
	// here — core brackets store reads with deferred releases — so no
	// session lock is held when we land in this recover.
	defer func() {
		if p := recover(); p != nil {
			gf, ok := p.(*growthFailed)
			if !ok {
				panic(p)
			}
			res, err = nil, gf.err
		}
	}()
	algo := q.Algorithm
	if algo == "" {
		algo = DSSA
	}
	if algo != SSA && algo != DSSA {
		return nil, fmt.Errorf("stopandstare: session queries support ssa/dssa, not %q", algo)
	}
	if q.Epsilon == 0 {
		q.Epsilon = 0.1
	}
	copt := core.Options{
		K: q.K, Epsilon: q.Epsilon, Delta: q.Delta, Seed: s.opt.Seed,
		Eps1: q.Eps1, Eps2: q.Eps2, Eps3: q.Eps3,
		Trace: q.OnCheckpoint,
	}
	if s.inst != nil && q.K >= 1 {
		copt.OptLowerBound = s.inst.OptLowerBound(q.K)
	}
	env := &sessionEnv{s: s, ctx: ctx}
	var cres *core.Result
	if algo == DSSA {
		cres, err = core.DSSAWith(copt, env)
	} else {
		cres, err = core.SSAWith(copt, verifyEnv{env})
	}
	if err != nil {
		return nil, err
	}
	s.queries.Add(1)
	return &Result{Seeds: cres.Seeds, InfluenceEstimate: cres.Influence,
		Samples: cres.TotalSamples, Iterations: cres.Iterations, HitCap: cres.HitCap,
		MemoryBytes: cres.MemoryBytes, Elapsed: cres.Elapsed, Warm: !cres.Grew,
		GrowthAllocBytes: env.grown.allocBytes.Load(), GrowthGCCycles: env.grown.gcCycles.Load()}, nil
}

// Gamma returns Σ_v b(v) for weighted sessions (0 for classic IM sessions):
// the maximum attainable benefit, and the scale of InfluenceEstimate.
func (s *Session) Gamma() float64 {
	if s.inst == nil {
		return 0
	}
	return s.inst.Gamma
}

// Stats snapshots the session's resident state. Safe to call concurrently
// with queries.
func (s *Session) Stats() SessionStats {
	s.mu.RLock()
	samples := s.store.Len()
	items := s.store.Items()
	spill := s.store.SpillStats()
	s.mu.RUnlock()
	var vsamples int
	v := s.verify
	v.mu.RLock()
	if v.store != nil {
		vsamples = v.store.Len()
		vspill := v.store.SpillStats()
		spill.SpilledBytes += vspill.SpilledBytes
		spill.FileBytes += vspill.FileBytes
	}
	v.mu.RUnlock()
	plan := s.sampler.PlanBytes()
	cbytes, vbytes := s.storeBytes()
	runs, solverBytes := s.solver.Retained()
	return SessionStats{
		Queries:            s.queries.Load(),
		Growths:            s.growths.Load(),
		Samples:            samples,
		Items:              items,
		StoreBytes:         cbytes + vbytes,
		VerifySamples:      vsamples,
		VerifyBytes:        vbytes,
		StoreSpilledBytes:  spill.SpilledBytes,
		SpillFileBytes:     spill.FileBytes,
		PlanBytes:          plan,
		GraphResidentBytes: s.g.ResidentBytes(),
		GraphMappedBytes:   s.g.MappedBytes(),
		Solvers:            runs,
		SolverBytes:        solverBytes,
		Recovered:          s.recovered,
		SnapshotBytes:      s.snapshotBytes.Load(),
		GrowthAllocBytes:   s.grown.allocBytes.Load(),
		GrowthGCCycles:     s.grown.gcCycles.Load(),
	}
}

// StoreBytes is Stats().StoreBytes read alone: the stores' resident bytes,
// under their read locks only. The serving manager's budget reads it for
// every tenant on every pass.
func (s *Session) StoreBytes() int64 {
	cbytes, vbytes := s.storeBytes()
	return cbytes + vbytes
}

// storeBytes returns the resident bytes of the coverage store and of the
// verification store. Store.Bytes includes the shared plan, so the plan is
// subtracted, read BEFORE each store total: PlanBytes is monotone (0 →
// compiled size, once), so a total — which re-reads it — can only see a
// value ≥ plan, keeping both results non-negative even if another sampler
// on the same graph compiles the plan mid-read.
func (s *Session) storeBytes() (coverage, verify int64) {
	s.mu.RLock()
	plan := s.sampler.PlanBytes()
	coverage = s.store.Bytes() - plan
	s.mu.RUnlock()
	v := s.verify
	v.mu.RLock()
	if v.store != nil {
		verify = v.store.Bytes() - plan
	}
	v.mu.RUnlock()
	return coverage, verify
}

// SpillTo spills the stores' coldest units until their resident RR bytes
// drop to budget (0 spills everything spillable), taking the session write
// locks for the move. The verification store goes first, down to what the
// coverage store leaves of the budget: only SSA queries read it. It returns
// the resident bytes freed; (0, nil) when the session has no spill tier.
// The serving manager uses this as spill-before-evict: a tenant over the
// byte budget sheds residency without losing its warm stores. Results of
// subsequent queries are unchanged — spilling only moves bytes.
func (s *Session) SpillTo(budget int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.store.SpillStats().Enabled {
		return 0, nil
	}
	s.verify.mu.Lock()
	defer s.verify.mu.Unlock()
	vst := s.verify.store
	plan := s.sampler.PlanBytes() // both stores' Bytes include it
	before := s.store.Bytes()
	var freed int64
	var err error
	if vst != nil {
		vbefore := vst.Bytes()
		err = vst.SpillTo(max(budget-(before-plan), 0))
		freed = vbefore - vst.Bytes()
		budget -= vst.Bytes() - plan
	}
	if err == nil {
		err = s.store.SpillTo(max(budget, 0))
	}
	return max(freed+before-s.store.Bytes(), 0), err
}

// DropCachedPlans makes g forget its compiled sampling plans: sessions and
// samplers created afterwards compile again, while live ones keep the plans
// they hold. Retiring a graph needs no call: its plans live on the graph
// and are collected with it.
func DropCachedPlans(g *Graph) { g.DropPlans() }

// sessionEnv adapts a Session to core.Exec for one query: read-only query
// phases share the session's read lock, store top-ups take the write lock
// (honouring the query's context), solves go to the session's one solver,
// and coverage walks use pooled scratch so concurrent queries never share
// mutable state.
type sessionEnv struct {
	s       *Session
	ctx     context.Context
	grown   growthCounters    // this query's top-ups
	samples [2]metrics.Sample // readAllocGCs' scratch, so a read allocates nothing
}

func (e *sessionEnv) Store() ris.Store { return e.s.store }

func (e *sessionEnv) Ensure(target int) bool {
	grew := e.grow(&e.s.mu, &e.s.store, e.s.sampler, target)
	if grew {
		e.s.growths.Add(1)
	}
	return grew
}

// growthCounters sums what store top-ups cost the process: heap bytes
// allocated and GC cycles completed between each one's edges.
type growthCounters struct{ allocBytes, gcCycles atomic.Int64 }

func (c *growthCounters) add(alloc, gcs int64) {
	c.allocBytes.Add(alloc)
	c.gcCycles.Add(gcs)
}

// readAllocGCs reads the process's cumulative heap allocation and completed
// GC cycles from runtime/metrics.
func (e *sessionEnv) readAllocGCs() (alloc, gcs int64) {
	e.samples = [2]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(e.samples[:])
	return int64(e.samples[0].Value.Uint64()), int64(e.samples[1].Value.Uint64())
}

// grow tops the store *st, guarded by mu, up to target RR sets, building it
// on sampler's stream first if it does not exist yet, and reports whether
// this call added sets (another query may have topped up first). A top-up's
// allocation and GC cycles are counted for the query and the session. A
// failed top-up mutates nothing, counts nothing and raises *growthFailed,
// with mu released.
func (e *sessionEnv) grow(mu *sync.RWMutex, st *ris.Store, sampler *ris.Sampler, target int) bool {
	mu.RLock()
	ok := *st != nil && (*st).Len() >= target
	mu.RUnlock()
	if ok {
		return false
	}
	mu.Lock()
	defer mu.Unlock() // also on the panic below
	if *st == nil {
		*st = ris.NewStore(sampler, e.s.opt.Seed, e.s.sopt)
	}
	if (*st).Len() >= target {
		return false // another query topped up first
	}
	alloc0, gcs0 := e.readAllocGCs()
	if err := (*st).GenerateToCtx(e.ctx, target); err != nil {
		panic(&growthFailed{err: err})
	}
	alloc1, gcs1 := e.readAllocGCs()
	e.grown.add(alloc1-alloc0, gcs1-gcs0)
	e.s.grown.add(alloc1-alloc0, gcs1-gcs0)
	return true
}

func (e *sessionEnv) Acquire() { e.s.mu.RLock() }
func (e *sessionEnv) Release() { e.s.mu.RUnlock() }

func (e *sessionEnv) Solve(upto, k int) maxcover.Result { return e.s.solver.Solve(upto, k) }

func (e *sessionEnv) Coverage(seeds []uint32, from, to int) int64 {
	w := windowWords.Get().(*[]uint64)
	defer windowWords.Put(w)
	return ris.CoverageRangeSeedsMarks(e.s.store, w, seeds, from, to)
}

// verifyEnv is sessionEnv with the core.Verifier extension: a long-lived
// session answers SSA's Estimate-Inf windows from its verification store,
// a one-shot session by scanning them on its Workers under the query's
// context.
type verifyEnv struct{ *sessionEnv }

func (e verifyEnv) VerifyStopIndex(seeds []uint32, from, to int, need int64) (int, int64, bool) {
	if err := e.ctx.Err(); err != nil {
		panic(&growthFailed{err: err})
	}
	v := e.s.verify
	if v.scan || to > retainedIDs {
		id, cov, err := ris.ScanStop(e.ctx, v.sampler, e.s.opt.Seed, seeds, from, to, need, e.s.opt.Workers)
		if err != nil {
			panic(&growthFailed{err: err})
		}
		return id, cov, false
	}
	// Verification growth is not counted in Session.growths: that counter
	// is the coverage store's, and request coalescing is pinned to it.
	grew := e.grow(&v.mu, &v.store, v.sampler, to)
	w := windowWords.Get().(*[]uint64)
	defer windowWords.Put(w)
	v.mu.RLock()
	defer v.mu.RUnlock()
	id, cov := ris.StopIndex(v.store, w, seeds, from, to, need)
	return id, cov, grew
}
