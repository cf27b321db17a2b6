// Package serving is the multi-tenant serving layer: one process holding
// many (graph, model) Sessions under a global memory budget, answering a
// concurrent query stream with request coalescing, admission control and
// backpressure. It is the seam between the single-session serving objects
// (stopandstare.Session) and a fleet front end: cmd/imserve wires a
// Manager behind HTTP.
//
// The design leans on the same amortization argument as the sampling core:
// StaticGreedy-style reuse of one sampled state across all consumers only
// pays off when the expensive state is genuinely shared — here across
// queries (warm sessions), across clients (coalescing) and across tenants
// (the byte budget decides which RR stores stay resident). Because RR set
// i is a pure function of (seed, i), every sharing decision is exact: an
// evicted tenant's store regenerates bit-identically, and a coalesced
// follower receives exactly the result it would have computed itself.
package serving

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stopandstare"
	"stopandstare/internal/ris"
)

// ErrUnknownTenant reports a query naming a tenant the manager does not
// hold. The HTTP layer maps it to 404.
var ErrUnknownTenant = errors.New("serving: unknown tenant")

// Config sizes a Manager.
type Config struct {
	// BudgetBytes is the global RR-store budget summed across resident
	// session stores. When a query's growth pushes the total past it, the
	// manager first asks sessions with a spill tier (SessionOptions.
	// SpillBudgetBytes > 0) to push cold arena segments and index blocks to
	// disk — spilling is non-destructive, so even the busy tenant that just
	// answered can shed bytes — and only then evicts least recently used
	// idle sessions (store and solver dropped, graph and compiled plan
	// kept) until the total fits. ≤ 0 disables both. Only resident store
	// bytes count against the budget: spilled bytes live in the page cache,
	// and the solver's retained greedy runs (SessionStats.SolverBytes,
	// bounded per session) are reported but not budgeted.
	BudgetBytes int64
	// MaxInFlight bounds concurrently executing queries (≤0 selects
	// runtime.GOMAXPROCS(0)).
	MaxInFlight int
	// MaxQueued bounds requests waiting for an execution slot beyond
	// MaxInFlight: 0 selects 4×MaxInFlight, negative selects no queue
	// (reject as soon as every slot is busy).
	MaxQueued int
	// OnExecute, when non-nil, is invoked by each coalescing-group leader
	// after its flight is registered and admission passed, immediately
	// before it executes. It exists so tests and benches can hold a leader
	// in place — while followers join its flight, or while backpressure
	// builds behind its execution slot — making "N concurrent identical
	// queries, one execution" and "queue full means 429" deterministic
	// instead of races against the leader finishing first. Production
	// configs leave it nil.
	OnExecute func(tenant string)
	// StateDir, when non-empty, makes tenant sessions durable: each tenant
	// gets the subdirectory StateDir/<name>, its session recovers the RR
	// store from the committed snapshot there (verified; best-effort), and
	// the manager snapshots the store back before budget evictions and on
	// retirement (RemoveTenant/Close — the SIGTERM drain path). Recovered
	// sets were not resampled, so a restarted process answers its first
	// queries at warm speed. StartRecovery warms durable tenants eagerly
	// and drives the readiness endpoint.
	StateDir string
}

// TenantConfig describes one tenant: where its graph comes from and how
// its session samples. Exactly one of Graph and GraphFile must be set.
type TenantConfig struct {
	// Graph is a pre-built graph owned by the caller; the manager will not
	// close it on retirement.
	Graph *stopandstare.Graph
	// GraphFile is opened lazily via stopandstare.OpenGraphFile on the
	// tenant's first query — a mapped .sasg tenant therefore costs ~0
	// resident bytes until queried, and its pages are shared with every
	// other process serving the same file. The manager owns graphs it
	// opened and closes them on retirement.
	GraphFile string
	// Model is the propagation model.
	Model stopandstare.Model
	// Session carries the per-session sampling parameters (seed, workers,
	// shards, weights).
	Session stopandstare.SessionOptions
}

// tenant is one admitted (graph, model) pair. Its session is built lazily
// and may be evicted (set nil) any number of times; the graph and the
// process-wide compiled plan survive eviction, so re-admission recomputes
// only the RR store — exactly, since the stream is a pure function of the
// session seed.
type tenant struct {
	name     string
	cfg      TenantConfig
	stateDir string // per-tenant snapshot directory ("" = not durable)

	mu        sync.Mutex // guards g/ownsGraph/sess transitions
	g         *stopandstare.Graph
	ownsGraph bool
	sess      *stopandstare.Session

	lastUsed  int64 // manager clock at last admission, under Manager.mu
	inflight  atomic.Int64
	queries   atomic.Int64
	evictions atomic.Int64
	persists  atomic.Int64
}

// session returns the tenant's live session, opening the graph and
// building the session on first use (and after eviction).
func (t *tenant) session() (*stopandstare.Session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sess != nil {
		return t.sess, nil
	}
	if t.g == nil {
		g, err := stopandstare.OpenGraphFile(t.cfg.GraphFile)
		if err != nil {
			return nil, fmt.Errorf("serving: tenant %q: %w", t.name, err)
		}
		t.g = g
		t.ownsGraph = true
	}
	sopt := t.cfg.Session
	if t.stateDir != "" {
		// Durable tenants recover inside NewSession: a committed matching
		// snapshot warms the store, anything else starts cold.
		sopt.StateDir = t.stateDir
	}
	sess, err := stopandstare.NewSession(t.g, t.cfg.Model, sopt)
	if err != nil {
		return nil, fmt.Errorf("serving: tenant %q: %w", t.name, err)
	}
	t.sess = sess
	return sess, nil
}

// persistLocked snapshots the tenant's resident session, best-effort: a
// failed snapshot (disk full, no state dir) must never block eviction or
// retirement — the store regenerates bit-identically either way, durability
// only changes the cost of coming back. Caller holds t.mu.
func (t *tenant) persistLocked() {
	if t.sess == nil || t.stateDir == "" {
		return
	}
	if _, err := t.sess.Persist(); err == nil {
		t.persists.Add(1)
	}
}

// evict drops the tenant's session — the RR store and the solver's retained
// greedy runs — but keeps the graph open and the compiled plan cached, so a
// later query rebuilds the store bit-identically without recompiling
// anything. Durable tenants snapshot first: re-admission then recovers
// instead of resampling.
func (t *tenant) evict() {
	t.mu.Lock()
	t.persistLocked()
	t.sess = nil
	t.mu.Unlock()
	t.evictions.Add(1)
}

// retire releases everything: the session, the graph's cached plans, and
// the graph itself if the manager opened it (mapped graphs unmap here).
// Durable tenants snapshot first — this is the SIGTERM drain path, so the
// next process starts from exactly this store.
func (t *tenant) retire() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.persistLocked()
	t.sess = nil
	if t.g != nil {
		stopandstare.DropCachedPlans(t.g)
		if t.ownsGraph {
			t.g.Close()
		}
		t.g = nil
	}
}

// storeBytes reports the resident session's store footprint (the evictable
// component of the budget), or ok=false for an evicted/never-built session.
func (t *tenant) storeBytes() (int64, bool) {
	t.mu.Lock()
	sess := t.sess
	t.mu.Unlock()
	if sess == nil {
		return 0, false
	}
	return sess.Stats().StoreBytes, true
}

// trySpill asks the tenant's resident session to push everything spillable
// to its disk tier, reporting the resident bytes freed. Safe while queries
// are in flight: Session.SpillTo serializes on the session write lock and
// never changes observable contents.
func (t *tenant) trySpill() int64 {
	t.mu.Lock()
	sess := t.sess
	t.mu.Unlock()
	if sess == nil {
		return 0
	}
	freed, err := sess.SpillTo(0)
	if err != nil {
		return 0
	}
	return freed
}

// flightKey identifies one coalescable query shape. Epsilon/delta/algorithm
// are normalized to the session defaults first, so {"k":5} and
// {"k":5,"epsilon":0.1,"algorithm":"dssa"} share a flight.
type flightKey struct {
	tenant           string
	algo             stopandstare.Algorithm
	k                int
	eps, delta       float64
	eps1, eps2, eps3 float64
}

// flight is one in-progress execution shared by a coalescing group: the
// leader fills res/err and closes done; followers wait on done (or their
// own deadline) and copy the result.
type flight struct {
	done chan struct{}
	res  *stopandstare.Result
	err  error
}

// Manager owns the tenants, the admission gate and the coalescing table.
// All methods are safe for concurrent use.
type Manager struct {
	cfg     Config
	limiter *Limiter

	mu      sync.Mutex // guards tenants map + LRU clock
	tenants map[string]*tenant
	clock   int64
	closed  bool

	flightMu sync.Mutex
	flights  map[flightKey]*flight

	queries   atomic.Int64 // admitted requests (leaders + followers)
	executed  atomic.Int64 // queries that ran Session.Maximize
	coalesced atomic.Int64 // followers that joined an in-flight execution
	rejected  atomic.Int64 // ErrOverloaded admissions (HTTP 429)
	deadlined atomic.Int64 // deadlines expired while queued/coalesced (HTTP 503)
	evictions atomic.Int64
	spills    atomic.Int64 // successful spill passes during budget enforcement

	recovering atomic.Int32 // StartRecovery passes still running
}

// NewManager builds an empty manager; add tenants with AddTenant.
func NewManager(cfg Config) *Manager {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.MaxQueued == 0:
		cfg.MaxQueued = 4 * cfg.MaxInFlight
	case cfg.MaxQueued < 0:
		cfg.MaxQueued = 0
	}
	return &Manager{
		cfg:     cfg,
		limiter: NewLimiter(cfg.MaxInFlight, cfg.MaxQueued),
		tenants: make(map[string]*tenant),
		flights: make(map[flightKey]*flight),
	}
}

// AddTenant admits a tenant under name. Admission is cheap: nothing is
// opened, compiled or sampled until the tenant's first query.
func (m *Manager) AddTenant(name string, cfg TenantConfig) error {
	if name == "" {
		return errors.New("serving: empty tenant name")
	}
	if (cfg.Graph == nil) == (cfg.GraphFile == "") {
		return fmt.Errorf("serving: tenant %q needs exactly one of Graph and GraphFile", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("serving: manager closed")
	}
	if _, ok := m.tenants[name]; ok {
		return fmt.Errorf("serving: tenant %q already exists", name)
	}
	// Caller-provided graphs are held from admission (ownsGraph stays
	// false: the caller closes them); GraphFile tenants stay empty until
	// their first query opens the file.
	t := &tenant{name: name, cfg: cfg, g: cfg.Graph}
	if m.cfg.StateDir != "" {
		t.stateDir = filepath.Join(m.cfg.StateDir, name)
	}
	m.tenants[name] = t
	return nil
}

// StartRecovery warms durable tenants in the background: each tenant state
// directory is first swept of orphans (uncommitted *.tmp files and snapshot
// files the manifest no longer references — debris of crashes mid-persist),
// then tenants holding a committed snapshot get their session built now, so
// the recovered store is resident before the first query instead of on it.
// Readiness (Recovering) reports false until the pass completes; liveness
// is unaffected. No-op without a StateDir.
func (m *Manager) StartRecovery() {
	if m.cfg.StateDir == "" {
		return
	}
	m.mu.Lock()
	ts := make([]*tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		ts = append(ts, t)
	}
	m.mu.Unlock()
	m.recovering.Add(1)
	go func() {
		defer m.recovering.Add(-1)
		for _, t := range ts {
			if t.stateDir == "" {
				continue
			}
			ris.CleanStateDir(t.stateDir)
			if _, err := ris.ReadSnapshotInfo(t.stateDir); err != nil {
				continue // nothing committed: stay lazy, admit cold on first query
			}
			// session() recovers via SessionOptions.StateDir; failures
			// (missing graph file, mismatched snapshot) leave the tenant
			// lazy and are surfaced by its first query as usual.
			t.session()
		}
	}()
}

// Recovering reports whether a StartRecovery pass is still warming durable
// tenants. The readiness endpoint serves 503 while this is true: queries
// would work — sessions build on demand — but would pay recovery latency
// the caller asked to hide by probing readiness.
func (m *Manager) Recovering() bool { return m.recovering.Load() > 0 }

// WorkerAddrs returns the union of remote shard-worker addresses across
// all tenants, sorted — the set the readiness probe pings. Empty for
// in-process topologies.
func (m *Manager) WorkerAddrs() []string {
	m.mu.Lock()
	seen := map[string]bool{}
	for _, t := range m.tenants {
		for _, a := range t.cfg.Session.RemoteWorkers {
			seen[a] = true
		}
	}
	m.mu.Unlock()
	addrs := make([]string, 0, len(seen))
	for a := range seen {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	return addrs
}

// RemoveTenant retires a tenant: new queries get ErrUnknownTenant
// immediately, in-flight queries on it are drained, then its cached plans
// are dropped and its graph closed if the manager opened it.
func (m *Manager) RemoveTenant(name string) error {
	m.mu.Lock()
	t, ok := m.tenants[name]
	if ok {
		delete(m.tenants, name)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	m.drainAndRetire(t)
	return nil
}

// Close retires every tenant. The manager rejects queries afterwards.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	ts := make([]*tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		ts = append(ts, t)
	}
	m.tenants = make(map[string]*tenant)
	m.mu.Unlock()
	for _, t := range ts {
		m.drainAndRetire(t)
	}
}

// drainAndRetire waits for the tenant's in-flight queries — they hold the
// graph's memory, which retire may unmap — then releases everything.
func (m *Manager) drainAndRetire(t *tenant) {
	for t.inflight.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	t.retire()
}

// Tenants lists the admitted tenant names, sorted.
func (m *Manager) Tenants() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Maximize serves one query for the named tenant: coalescing first (an
// identical in-flight query's execution is joined, consuming no execution
// slot), then — for the group leader only — admission through the bounded
// in-flight/queue gate with the deadline honoured while waiting, then the
// session query itself, then budget enforcement. The result is
// bit-identical to a cold single-tenant run with the tenant's
// SessionOptions — eviction and coalescing change cost, never answers.
func (m *Manager) Maximize(ctx context.Context, tenantName string, q stopandstare.Query) (*stopandstare.Result, error) {
	m.queries.Add(1)
	m.mu.Lock()
	t, ok := m.tenants[tenantName]
	if ok {
		m.clock++
		t.lastUsed = m.clock
	}
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenantName)
	}
	t.inflight.Add(1)
	defer t.inflight.Add(-1)
	t.queries.Add(1)
	return m.coalesce(ctx, t, q)
}

// coalesce runs q, sharing one execution among concurrent identical
// queries on the same tenant. The first arrival (the leader) registers a
// flight, passes admission, and executes; later identical arrivals wait
// for the leader's result instead of racing it on the session write lock
// — and without occupying admission slots — so N concurrent identical
// cold queries cost exactly one store top-up and one slot. Distinct
// queries never share a flight: they fan out on the session's read lock
// as before. Queries with an OnCheckpoint observer bypass coalescing
// entirely — the observer is caller-specific state a shared execution
// cannot serve.
func (m *Manager) coalesce(ctx context.Context, t *tenant, q stopandstare.Query) (*stopandstare.Result, error) {
	if q.OnCheckpoint != nil {
		res, err := m.admitAndExecute(ctx, t, q)
		if err == nil {
			m.enforceBudget(t)
		}
		return res, err
	}
	key := flightKey{
		tenant: t.name, algo: q.Algorithm, k: q.K, eps: q.Epsilon,
		delta: q.Delta, eps1: q.Eps1, eps2: q.Eps2, eps3: q.Eps3,
	}
	// Mirror the session's defaulting so equivalent requests share a key.
	if key.algo == "" {
		key.algo = stopandstare.DSSA
	}
	if key.eps == 0 {
		key.eps = 0.1
	}

	m.flightMu.Lock()
	if f, ok := m.flights[key]; ok {
		m.flightMu.Unlock()
		m.coalesced.Add(1)
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			res := *f.res
			// Each follower gets its own Seeds backing array: the shallow
			// copy above would alias every follower (and the leader) to one
			// slice, so a caller sorting or truncating its result would
			// corrupt all the others' responses.
			res.Seeds = slices.Clone(f.res.Seeds)
			res.Coalesced = true
			return &res, nil
		case <-ctx.Done():
			m.deadlined.Add(1)
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	m.flights[key] = f
	m.flightMu.Unlock()

	f.res, f.err = m.admitAndExecute(ctx, t, q)
	// Deregister before waking followers: arrivals after this point start
	// a fresh flight instead of receiving a completed one's result.
	m.flightMu.Lock()
	delete(m.flights, key)
	m.flightMu.Unlock()
	close(f.done)
	if f.err == nil {
		m.enforceBudget(t)
	}
	return f.res, f.err
}

// admitAndExecute passes the admission gate, then runs q against the
// tenant's session (building it if evicted). An overload or deadline here
// propagates to the whole coalescing group: every follower would have
// faced the same gate.
func (m *Manager) admitAndExecute(ctx context.Context, t *tenant, q stopandstare.Query) (*stopandstare.Result, error) {
	if err := m.limiter.Acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			m.rejected.Add(1)
		} else {
			m.deadlined.Add(1)
		}
		return nil, err
	}
	defer m.limiter.Release()
	if h := m.cfg.OnExecute; h != nil {
		h(t.name)
	}
	sess, err := t.session()
	if err != nil {
		return nil, err
	}
	m.executed.Add(1)
	// The request context rides into store growth: an abandoned request
	// cancels its top-up between sampling chunks instead of finishing work
	// nobody will read. Cancellation never tears the store — a canceled
	// top-up mutates nothing — so a coalesced follower whose leader was
	// canceled can simply retry and resume from the same clean prefix.
	return sess.MaximizeContext(ctx, q)
}

// enforceBudget shrinks the summed resident store bytes under the budget,
// cheapest remedy first: spill (cold bytes move to disk, the session keeps
// answering with pages faulting back in), then evict (the whole store is
// dropped and must regenerate). Spill candidates are every resident
// session, least recently used first — including the tenant that just
// answered (keep) and tenants with in-flight queries, since SpillTo is
// non-destructive and serializes on the session write lock; each is tried
// at most once per call so the loop always progresses. Eviction keeps the
// old rules: keep and busy tenants are never victims, so a single tenant
// may legitimately exceed the budget alone — the alternative is thrashing
// the one store every query needs. Lock order: Manager.mu, then tenant.mu
// (inside storeBytes/evict/trySpill), then session locks; no path
// reverses it.
func (m *Manager) enforceBudget(keep *tenant) {
	if m.cfg.BudgetBytes <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tried := make(map[*tenant]bool)
	for {
		var total int64
		var victim, spillee *tenant
		for _, t := range m.tenants {
			bytes, resident := t.storeBytes()
			if !resident {
				continue
			}
			total += bytes
			if !tried[t] && (spillee == nil || t.lastUsed < spillee.lastUsed) {
				spillee = t
			}
			if t == keep || t.inflight.Load() > 0 {
				continue
			}
			if victim == nil || t.lastUsed < victim.lastUsed {
				victim = t
			}
		}
		if total <= m.cfg.BudgetBytes {
			return
		}
		if spillee != nil {
			tried[spillee] = true
			if spillee.trySpill() > 0 {
				m.spills.Add(1)
			}
			continue
		}
		if victim == nil {
			return
		}
		victim.evict()
		m.evictions.Add(1)
	}
}

// TenantStats is one tenant's slice of Manager.Stats. Session is the zero
// value while the tenant is evicted or never queried; Nodes/Edges/Model
// are zero until the graph is first opened (lazy GraphFile tenants).
type TenantStats struct {
	Name      string
	Resident  bool // a live session (RR store) is in memory
	Nodes     int
	Edges     int64
	Model     string
	Queries   int64
	Evictions int64
	Persists  int64 // snapshots committed (eviction + retirement paths)
	Session   stopandstare.SessionStats
}

// Stats is a point-in-time manager snapshot.
type Stats struct {
	// Tenants holds per-tenant snapshots, sorted by name.
	Tenants []TenantStats
	// Queries counts admitted requests; Executed the ones that ran a
	// session query; Coalesced the followers served from a shared
	// execution (Queries = Executed + Coalesced + failed lookups).
	Queries, Executed, Coalesced int64
	// Rejected counts queue-full admissions (429); Deadlined counts
	// deadlines expired while waiting (503); Evictions counts sessions
	// dropped for budget; Spills counts budget-enforcement passes that
	// moved cold store bytes to a session's disk tier instead.
	Rejected, Deadlined, Evictions, Spills int64
	// Recovered sums RR sets restored from snapshots across resident
	// sessions — samples this process never paid to generate. Persists
	// counts snapshots committed; SnapshotBytes sums current snapshot file
	// sizes. Recovering mirrors Manager.Recovering (readiness).
	Recovered, Persists, SnapshotBytes int64
	Recovering                         bool
	// StoreBytes sums resident session stores — the number the budget
	// bounds. BudgetBytes echoes the configured budget (0 = unlimited).
	StoreBytes, BudgetBytes int64
	// StoreSpilledBytes sums the session bytes currently parked in spill
	// files (excluded from StoreBytes); SpillFileBytes sums the on-disk
	// spill file sizes backing them.
	StoreSpilledBytes, SpillFileBytes int64
	// InFlight and Queued snapshot the admission gate.
	InFlight, Queued int
}

// Stats snapshots the manager. Safe concurrently with queries; the
// per-tenant numbers are each internally consistent but the snapshot as a
// whole is not atomic across tenants.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	ts := make([]*tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		ts = append(ts, t)
	}
	m.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })

	st := Stats{
		Queries:     m.queries.Load(),
		Executed:    m.executed.Load(),
		Coalesced:   m.coalesced.Load(),
		Rejected:    m.rejected.Load(),
		Deadlined:   m.deadlined.Load(),
		Evictions:   m.evictions.Load(),
		Spills:      m.spills.Load(),
		BudgetBytes: m.cfg.BudgetBytes,
		InFlight:    m.limiter.InFlight(),
		Queued:      m.limiter.Queued(),
		Recovering:  m.Recovering(),
	}
	for _, t := range ts {
		t.mu.Lock()
		g, sess := t.g, t.sess
		t.mu.Unlock()
		tst := TenantStats{
			Name:      t.name,
			Resident:  sess != nil,
			Queries:   t.queries.Load(),
			Evictions: t.evictions.Load(),
			Persists:  t.persists.Load(),
		}
		st.Persists += tst.Persists
		if g != nil {
			tst.Nodes = g.NumNodes()
			tst.Edges = g.NumEdges()
			tst.Model = t.cfg.Model.String()
		}
		if sess != nil {
			tst.Session = sess.Stats()
			st.StoreBytes += tst.Session.StoreBytes
			st.StoreSpilledBytes += tst.Session.StoreSpilledBytes
			st.SpillFileBytes += tst.Session.SpillFileBytes
			st.Recovered += int64(tst.Session.Recovered)
			st.SnapshotBytes += tst.Session.SnapshotBytes
		}
		st.Tenants = append(st.Tenants, tst)
	}
	return st
}
