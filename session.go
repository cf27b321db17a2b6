package stopandstare

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stopandstare/internal/core"
	"stopandstare/internal/epoch"
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
	"stopandstare/internal/tvm"
)

// ErrShardUnreachable is the sentinel wrapped by the error a Session with
// RemoteWorkers returns when a shard worker cannot be reached: test with
// errors.Is to distinguish degraded serving capacity from a bad request.
var ErrShardUnreachable = ris.ErrShardUnreachable

// Session is a long-lived, concurrency-safe serving object for a stream of
// influence-maximization queries against one (graph, model). It owns:
//
//   - one sampler whose compiled ris.Plan comes from the process-wide plan
//     cache, so every session and one-shot run on the same graph compiles
//     the plan exactly once;
//   - one persistent RR-set store that only ever grows: a query's doubling
//     loop tops up past the current stream length and never resamples a
//     prefix — D-SSA's "no sample is discarded" principle extended across
//     runs;
//   - one max-coverage solver for every k, caching a resumable greedy run
//     per checkpoint prefix: a query whose checkpoints an earlier query
//     (at any k) already solved copies the picks, and a larger k resumes
//     the run where the smaller one stopped.
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
	g       *Graph
	sampler *ris.Sampler
	inst    *tvm.Instance // non-nil for weighted (TVM) sessions
	store   ris.Store

	mu      sync.RWMutex     // store growth: writers top up, readers query
	solver  *maxcover.Solver // one for every k; locks itself
	marks   sync.Pool        // *epoch.Marks, per-query coverage scratch
	queries atomic.Int64
	growths atomic.Int64

	recovered     int          // RR sets restored from a snapshot at build
	snapshotBytes atomic.Int64 // last committed/recovered snapshot file size
}

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
	// Workers bounds sampling parallelism (≤0 ⇒ runtime.GOMAXPROCS(0)).
	Workers int
	// Shards is the number of in-process id shards of the RR store;
	// ≤ 1 = one shard (default). Bit-identical at every count (see
	// Options.Shards).
	Shards int
	// ShardWorkers bounds per-shard generation parallelism. For remote
	// shards it is the sampling parallelism requested on each worker (0 =
	// the worker process's own default).
	ShardWorkers int
	// RemoteWorkers lists imworker addresses ("host:port" TCP or
	// "unix:/path"); non-empty keeps the RR stream in a remote-sharded
	// store, one shard per worker process, overriding Shards. Workers open
	// the same graph (a mapped .sasg shares pages across every worker on a
	// host) and must be started with a node count matching this session's
	// graph. Results are bit-identical to every in-process topology; an
	// unreachable worker surfaces from Maximize as an error wrapping
	// ErrShardUnreachable after the client's reconnect budget is spent.
	RemoteWorkers []string
	// RemoteTimeout bounds one worker RPC exchange (including the sampling
	// a top-up triggers worker-side); 0 selects a generous default.
	RemoteTimeout time.Duration
	// SpillBudgetBytes > 0 enables the store's disk spill tier: whenever a
	// top-up leaves more than this many resident RR bytes, the coldest
	// arena extents and CSR index blocks are spilled to disk and served
	// from a read-only mapping. Results stay bit-identical at every budget;
	// only residency moves. See ris.StoreOptions.SpillBudgetBytes.
	SpillBudgetBytes int64
	// SpillDir is where spill files are created ("" ⇒ the OS temp dir).
	SpillDir string
	// StateDir, when non-empty, makes the session durable: NewSession
	// recovers the RR store from the directory's committed snapshot (if its
	// seed, model and shard topology match — verified, with
	// corrupted block suffixes discarded and resampled deterministically),
	// and Session.Persist writes crash-safe snapshots back. Recovery is
	// best-effort: a missing, mismatched or unreadable snapshot simply
	// starts the session cold; it never blocks serving. Results are
	// bit-identical either way — a recovered store holds exactly the sets a
	// cold one would regenerate.
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
// with plan and store memory reported separately: the plan is shared
// process-wide per (graph, model), so summing Stats().PlanBytes across
// sessions on one graph would double-count, while StoreBytes is genuinely
// per-session.
type SessionStats struct {
	// Queries is the number of Maximize calls served.
	Queries int64
	// Growths is the number of write-locked store top-ups taken: how many
	// times a query found the stream too short and generated RR sets. The
	// serving layer's request coalescing is pinned against this counter —
	// N concurrent identical queries must grow the store exactly as often
	// as one query alone.
	Growths int64
	// Samples is the number of RR sets resident in the store.
	Samples int
	// Items is the total number of node entries across resident RR sets.
	Items int64
	// StoreBytes approximates the store's own RESIDENT memory: arena,
	// offset tables and CSR index blocks held on the heap — excluding the
	// shared plan and excluding data spilled to disk.
	StoreBytes int64
	// StoreSpilledBytes is RR data tiered onto the session's spill file and
	// served through a read-only mapping (0 without a spill budget).
	StoreSpilledBytes int64
	// SpillFileBytes is the spill file's on-disk size, headers and
	// alignment padding included (the spill-tier overhead is the difference
	// from StoreSpilledBytes).
	SpillFileBytes int64
	// PlanBytes is the compiled sampling plan's memory (0 until the plan is
	// first compiled). Shared per (graph, model).
	PlanBytes int64
	// GraphResidentBytes is the graph arrays' private heap footprint — the
	// whole graph for built/loaded graphs, 0 for mmap-ed ones. Like
	// PlanBytes it is shared by every session on the same graph object, so
	// summing it across such sessions double-counts.
	GraphResidentBytes int64
	// GraphMappedBytes is the portion of the graph aliasing a read-only
	// file mapping (graphs opened with OpenGraphMapped): paged in on
	// demand and shared across every process serving the same file, so it
	// is reported separately from resident memory.
	GraphMappedBytes int64
	// Solvers is the number of greedy runs the session's max-coverage
	// solver retains: one per checkpoint prefix recently solved, shared by
	// every k.
	Solvers int
	// SolverBytes is the exact heap footprint of those runs plus the
	// solver's gain counts. Not part of StoreBytes.
	SolverBytes int64
	// Recovered is the number of RR sets restored from a StateDir snapshot
	// when the session was built (0 for cold starts and non-durable
	// sessions). Those sets were not resampled: a recovered session's
	// time-to-first-answer is what this bought.
	Recovered int
	// SnapshotBytes is the size of the session's current snapshot file —
	// the one recovered from at build, replaced by each successful Persist
	// (0 when neither happened).
	SnapshotBytes int64
}

// NewSession builds a serving session for (g, model). The heavy pieces are
// lazy: the plan compiles (once per graph and model, process-wide) on first
// sampling, and the store grows on first query.
func NewSession(g *Graph, model Model, opt SessionOptions) (*Session, error) {
	return newSession(g, model, opt, sessionRunLimit)
}

// newSession is NewSession with the solver's run limit as a parameter: the
// throw-away session of a one-shot Maximize never revisits a prefix and
// retains one run.
func newSession(g *Graph, model Model, opt SessionOptions, runLimit int) (*Session, error) {
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
	sopt := ris.StoreOptions{
		Workers: opt.Workers, Shards: opt.Shards, ShardWorkers: opt.ShardWorkers,
		RemoteWorkers: opt.RemoteWorkers, RemoteTimeout: opt.RemoteTimeout,
		SpillBudgetBytes: opt.SpillBudgetBytes, SpillDir: opt.SpillDir,
	}
	s := &Session{
		opt:     opt,
		g:       g,
		sampler: sampler,
		inst:    inst,
	}
	if opt.StateDir != "" {
		// Best-effort recovery: a committed, matching snapshot warms the
		// store (corrupt suffixes are discarded and resampled inside
		// Recover); anything else — no snapshot, wrong topology, corrupt
		// beyond the store header — starts cold. Either way the session is
		// usable, and bit-identical to a cold one at every query.
		if st, info, err := ris.Recover(sampler, opt.Seed, sopt, opt.StateDir); err == nil {
			s.store = st
			s.recovered = info.Sets
			s.snapshotBytes.Store(info.SnapshotBytes)
		}
	}
	if s.store == nil {
		s.store = ris.NewStore(sampler, opt.Seed, sopt)
	}
	s.solver = maxcover.NewCachedSolver(s.store, runLimit)
	s.marks.New = func() any { return new(epoch.Marks) }
	return s, nil
}

// Persist writes a crash-safe snapshot of the session's RR store into the
// session's StateDir and commits it atomically (snapshot file fsynced, then
// the manifest renamed over the previous one — a crash at any point leaves
// either the old or the new snapshot committed, never a torn mix). It takes
// the session write lock, so it serializes with store growth but not with
// serving reads. Sessions without a StateDir return ris.ErrNoSnapshot.
func (s *Session) Persist() (ris.SnapshotInfo, error) {
	if s.opt.StateDir == "" {
		return ris.SnapshotInfo{}, ris.ErrNoSnapshot
	}
	if err := os.MkdirAll(s.opt.StateDir, 0o755); err != nil {
		return ris.SnapshotInfo{}, err
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
// while the query is growing the RR store, the top-up aborts having mutated
// NOTHING — the stream, index and width stay exactly as before, so an
// abandoned query leaves no partial growth behind and the next identical
// query regenerates the same bit-identical sets. Read-only phases
// (selection, coverage walks) run to completion; cancellation is honoured
// at the growth boundaries, where all the unbounded work happens.
func (s *Session) MaximizeContext(ctx context.Context, q Query) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.maximize(ctx, q)
}

// growthCanceled carries a context error out of sessionEnv.Ensure (the
// error-free core.Exec surface) to maximize's recover, mirroring how
// *ris.ShardError escapes the error-free Store interface.
type growthCanceled struct{ err error }

func (s *Session) maximize(ctx context.Context, q Query) (res *Result, err error) {
	// The Store interface is error-free, so a remote-sharded store raises
	// worker failures as *ris.ShardError panics; this is the surface that
	// turns them back into ordinary errors (degraded mode: the session
	// stays usable and retries once workers return). Canceled growths
	// arrive the same way, as *growthCanceled. Lock discipline is
	// panic-safe below here — core brackets store reads with deferred
	// releases — so no session lock is held when we land in this recover.
	defer func() {
		if p := recover(); p != nil {
			switch v := p.(type) {
			case *ris.ShardError:
				res, err = nil, v
			case *growthCanceled:
				res, err = nil, v.err
			default:
				panic(p)
			}
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
	env := sessionEnv{s: s, ctx: ctx}
	var cres *core.Result
	if algo == DSSA {
		cres, err = core.DSSAWith(copt, env)
	} else {
		cres, err = core.SSAWith(copt, env)
	}
	if err != nil {
		return nil, err
	}
	s.queries.Add(1)
	return &Result{Seeds: cres.Seeds, InfluenceEstimate: cres.Influence,
		Samples: cres.TotalSamples, Iterations: cres.Iterations, HitCap: cres.HitCap,
		MemoryBytes: cres.MemoryBytes, Elapsed: cres.Elapsed, Warm: !cres.Grew}, nil
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
	// Plan bytes are read BEFORE the store total inside the same read-lock
	// section: PlanBytes is monotone (0 → compiled size, once), so total —
	// which re-reads it inside Store.Bytes — can only see a value ≥ plan,
	// keeping StoreBytes = total − plan non-negative even if another
	// sampler on the same graph compiles the plan mid-snapshot.
	plan := s.sampler.PlanBytes()
	total := s.store.Bytes()
	spill := s.store.SpillStats()
	s.mu.RUnlock()
	runs, solverBytes := s.solver.Retained()
	return SessionStats{
		Queries:            s.queries.Load(),
		Growths:            s.growths.Load(),
		Samples:            samples,
		Items:              items,
		StoreBytes:         total - plan, // Store.Bytes includes the shared plan
		StoreSpilledBytes:  spill.SpilledBytes,
		SpillFileBytes:     spill.FileBytes,
		PlanBytes:          plan,
		GraphResidentBytes: s.g.ResidentBytes(),
		GraphMappedBytes:   s.g.MappedBytes(),
		Solvers:            runs,
		SolverBytes:        solverBytes,
		Recovered:          s.recovered,
		SnapshotBytes:      s.snapshotBytes.Load(),
	}
}

// SpillTo spills the store's coldest units until its resident RR bytes drop
// to budget (0 spills everything spillable), taking the session write lock
// for the move. It returns the resident bytes freed; (0, nil) when the
// session has no spill tier. The serving manager uses this as
// spill-before-evict: a tenant over the byte budget sheds residency without
// losing its warm store. Results of subsequent queries are unchanged —
// spilling only moves bytes.
func (s *Session) SpillTo(budget int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.store.SpillStats().Enabled {
		return 0, nil
	}
	before := s.store.Bytes()
	err := s.store.SpillTo(budget)
	freed := before - s.store.Bytes()
	if freed < 0 {
		freed = 0
	}
	return freed, err
}

// DropCachedPlans evicts g's compiled sampling plans from the process-wide
// plan cache, releasing the graph key. Live sessions and samplers keep the
// plans they already hold; only future compilations are affected. Call this
// when a serving process retires a graph.
func DropCachedPlans(g *Graph) { ris.DropCachedPlans(g) }

// sessionEnv adapts a Session to core.Exec: read-only query phases share
// the session's read lock, store top-ups take the write lock (honouring the
// query's context), solves go to the session's one solver, and coverage
// walks use pooled scratch so concurrent queries never share mutable state.
type sessionEnv struct {
	s   *Session
	ctx context.Context
}

func (e sessionEnv) Store() ris.Store { return e.s.store }

func (e sessionEnv) Ensure(target int) bool {
	s := e.s
	s.mu.RLock()
	ok := s.store.Len() >= target
	s.mu.RUnlock()
	if ok {
		return false
	}
	var grew bool
	func() {
		s.mu.Lock()
		// Deferred so a remote shard's failure panic (*ris.ShardError) or a
		// canceled growth (*growthCanceled, raised below) cannot leak the
		// write lock on its way to maximize's recover.
		defer s.mu.Unlock()
		grew = s.store.Len() < target // another query may have topped up first
		if err := s.store.GenerateToCtx(e.ctx, target); err != nil {
			grew = false // canceled top-ups mutate nothing
			panic(&growthCanceled{err: err})
		}
	}()
	if grew {
		s.growths.Add(1)
	}
	return grew
}

func (e sessionEnv) Acquire() { e.s.mu.RLock() }
func (e sessionEnv) Release() { e.s.mu.RUnlock() }

func (e sessionEnv) Solve(upto, k int) maxcover.Result { return e.s.solver.Solve(upto, k) }

func (e sessionEnv) Coverage(seeds []uint32, from, to int) int64 {
	m := e.s.marks.Get().(*epoch.Marks)
	defer e.s.marks.Put(m) // returned to the pool even if a remote shard panics
	return ris.CoverageRangeSeedsMarks(e.s.store, m, seeds, from, to)
}
