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

// ErrTenantUnavailable wraps a failure of the tenant rather than the
// request: its graph file cannot be opened or decoded, NewSession rejects
// it, or a query finds content the graph may not hold
// (stopandstare.ErrBadGraphContent). The HTTP layer maps it to 500; the
// tenant stays admitted and its next query tries again (a content error is
// kept on the graph, so that query fails fast), while other tenants keep
// answering.
var ErrTenantUnavailable = errors.New("serving: tenant unavailable")

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
	// spill tier, weights).
	Session stopandstare.SessionOptions
}

// tenant is one admitted (graph, model) pair. Its session is built lazily
// and may be evicted (set nil) any number of times; the graph, and with it
// the compiled plan it carries, survives eviction, so re-admission
// recomputes only the RR store — exactly, since the stream is a pure
// function of the session seed.
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
			return nil, fmt.Errorf("%w: %q: %w", ErrTenantUnavailable, t.name, err)
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
		return nil, fmt.Errorf("%w: %q: %w", ErrTenantUnavailable, t.name, err)
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
// greedy runs — but keeps the graph open with its compiled plan, so a
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

// retire releases everything: the session, and the graph itself if the
// manager opened it (mapped graphs unmap here; the plans on the graph go
// with it).
// Durable tenants snapshot first — this is the SIGTERM drain path, so the
// next process starts from exactly this store.
func (t *tenant) retire() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.persistLocked()
	t.sess = nil
	if t.g != nil && t.ownsGraph {
		t.g.Close()
	}
	t.g = nil
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
	return sess.StoreBytes(), true
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

	enforceMu sync.Mutex          // held by the one running budget pass
	keepMu    sync.Mutex          // guards keeps
	keeps     []*tenant           // keep tenants of budget requests no pass has served
	spillHook func(tenant string) // test hook: runs before a budget spill

	flightMu sync.Mutex
	flights  map[flightKey]*flight

	queries   atomic.Int64 // admitted requests (leaders + followers)
	executed  atomic.Int64 // queries that ran Session.Maximize
	coalesced atomic.Int64 // followers that joined an in-flight execution
	rejected  atomic.Int64 // ErrOverloaded admissions (HTTP 429)
	deadlined atomic.Int64 // requests answered with a context error (HTTP 503)
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

// RemoveTenant retires a tenant: new queries get ErrUnknownTenant
// immediately, in-flight queries on it are drained, then its graph is closed
// if the manager opened it.
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
	res, err := m.coalesce(ctx, t, q)
	// Counted once, here, wherever the deadline or cancellation fired: in
	// the admission queue, waiting on a leader, or inside the session query.
	if isContextErr(err) {
		m.deadlined.Add(1)
	}
	return res, err
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

	for {
		m.flightMu.Lock()
		f, ok := m.flights[key]
		if !ok {
			break // lead a flight, still holding flightMu
		}
		m.flightMu.Unlock()
		m.coalesced.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err == nil {
			res := *f.res
			// Each follower gets its own Seeds backing array: the shallow
			// copy above would alias every follower (and the leader) to one
			// slice, so a caller sorting or truncating its result would
			// corrupt all the others' responses.
			res.Seeds = slices.Clone(f.res.Seeds)
			res.Coalesced = true
			return &res, nil
		}
		// A leader that failed on its own deadline or cancellation says
		// nothing about this follower's: while ctx is live, join or lead
		// the next flight. The canceled top-up mutated nothing, so it
		// resumes from the same clean prefix.
		if !isContextErr(f.err) || ctx.Err() != nil {
			return nil, f.err
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

// isContextErr reports an error from a context's deadline or cancellation.
func isContextErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// admitAndExecute passes the admission gate, then runs q against the
// tenant's session (building it if evicted). An overload here propagates
// to the whole coalescing group: every follower would have faced the same
// full gate. The leader's own deadline or cancellation does not: a follower
// whose context is still live retries (see coalesce).
func (m *Manager) admitAndExecute(ctx context.Context, t *tenant, q stopandstare.Query) (*stopandstare.Result, error) {
	if err := m.limiter.Acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			m.rejected.Add(1)
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
	// canceled retries and resumes from the same clean prefix.
	res, err := sess.MaximizeContext(ctx, q)
	if errors.Is(err, stopandstare.ErrBadGraphContent) {
		err = fmt.Errorf("%w: %q: %w", ErrTenantUnavailable, t.name, err)
	}
	return res, err
}

// enforceBudget requests a budget pass (budgetPass) that protects keep
// from eviction. Passes serialize on enforceMu, but a request never waits
// for a running one: it leaves keep in m.keeps and returns, and the running
// pass's caller runs one more pass for every keep left while it worked
// before it returns itself. So a spill or snapshot never holds up another
// tenant's answer, and every request is still served by a pass that starts
// after it.
func (m *Manager) enforceBudget(keep *tenant) {
	if m.cfg.BudgetBytes <= 0 {
		return
	}
	m.keepMu.Lock()
	m.keeps = append(m.keeps, keep)
	m.keepMu.Unlock()
	for m.enforceMu.TryLock() {
		m.keepMu.Lock()
		keeps := m.keeps
		m.keeps = nil
		m.keepMu.Unlock()
		if len(keeps) > 0 {
			m.budgetPass(keeps)
		}
		m.enforceMu.Unlock()
		// A request that failed its TryLock while this pass ran left its
		// keep behind: serve it (or find its own pass running).
		m.keepMu.Lock()
		more := len(m.keeps) > 0
		m.keepMu.Unlock()
		if !more {
			return
		}
	}
}

// budgetPass shrinks the summed resident store bytes under the budget,
// cheapest remedy first: spill (cold bytes move to disk, the session keeps
// answering with pages faulting back in), then evict (the whole store is
// dropped and must regenerate). Spill candidates are every resident
// session, least recently used first — including the keeps (tenants that
// just answered) and tenants with in-flight queries, since SpillTo is
// non-destructive and serializes on the session write lock; each is tried
// at most once per pass so the loop always progresses. Keeps and busy
// tenants are never eviction victims, so a single tenant may legitimately
// exceed the budget alone — the alternative is thrashing the one store
// every query needs. Manager.mu is held only to read the tenant set and
// each tenant's lastUsed and in-flight count, never across a store
// snapshot, spill or eviction, so their disk I/O does not stall other
// tenants' queries or Stats. Lock order: enforceMu, then tenant.mu (inside
// storeBytes/evict/trySpill), then session locks; Manager.mu is taken
// alone.
func (m *Manager) budgetPass(keeps []*tenant) {
	// usage is one tenant as the pass's choice sees it.
	type usage struct {
		t        *tenant
		lastUsed int64
		busy     bool // a keep, or queries in flight: never an eviction victim
	}
	tried := make(map[*tenant]bool)
	for {
		m.mu.Lock()
		ts := make([]usage, 0, len(m.tenants))
		for _, t := range m.tenants {
			ts = append(ts, usage{t: t, lastUsed: t.lastUsed,
				busy: slices.Contains(keeps, t) || t.inflight.Load() > 0})
		}
		m.mu.Unlock()
		var total int64
		var victim, spillee *usage
		for i := range ts {
			u := &ts[i]
			bytes, resident := u.t.storeBytes()
			if !resident {
				continue
			}
			total += bytes
			if !tried[u.t] && (spillee == nil || u.lastUsed < spillee.lastUsed) {
				spillee = u
			}
			if u.busy {
				continue
			}
			if victim == nil || u.lastUsed < victim.lastUsed {
				victim = u
			}
		}
		if total <= m.cfg.BudgetBytes {
			return
		}
		if spillee != nil {
			tried[spillee.t] = true
			if h := m.spillHook; h != nil {
				h(spillee.t.name)
			}
			if spillee.t.trySpill() > 0 {
				m.spills.Add(1)
			}
			continue
		}
		if victim == nil {
			return
		}
		victim.t.evict()
		m.evictions.Add(1)
	}
}

// Stats snapshots the manager as the GET /stats body, UptimeSec left to
// the server. Safe concurrently with queries; the per-tenant numbers are
// each internally consistent but the snapshot as a whole is not atomic
// across tenants. Queries = Executed + Coalesced + failed lookups, except
// that a follower whose leader failed on the leader's own deadline or
// cancellation joins or leads the next flight: it is counted again in
// Coalesced or Executed for each flight it retries in.
func (m *Manager) Stats() StatsResponse {
	m.mu.Lock()
	ts := make([]*tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		ts = append(ts, t)
	}
	m.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })

	st := StatsResponse{
		Queries:     m.queries.Load(),
		Executed:    m.executed.Load(),
		Coalesced:   m.coalesced.Load(),
		Rejected429: m.rejected.Load(),
		Timeout503:  m.deadlined.Load(),
		Evictions:   m.evictions.Load(),
		Spills:      m.spills.Load(),
		BudgetBytes: m.cfg.BudgetBytes,
		InFlight:    m.limiter.InFlight(),
		Queued:      m.limiter.Queued(),
		Recovering:  m.Recovering(),
		Tenants:     make([]TenantStatsResponse, 0, len(ts)),
	}
	for _, t := range ts {
		t.mu.Lock()
		g, sess := t.g, t.sess
		t.mu.Unlock()
		tst := TenantStatsResponse{
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
			tst.SessionStats = sess.Stats()
			st.StoreBytes += tst.StoreBytes
			st.StoreSpilledBytes += tst.StoreSpilledBytes
			st.SpillFileBytes += tst.SpillFileBytes
			st.Recovered += int64(tst.Recovered)
			st.SnapshotBytes += tst.SnapshotBytes
		}
		st.Tenants = append(st.Tenants, tst)
	}
	return st
}
