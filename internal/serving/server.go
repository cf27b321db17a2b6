package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"stopandstare"
)

// maxRequestBytes bounds a /maximize request body: queries are a handful
// of scalar fields, so anything past 1 MiB is garbage or abuse.
const maxRequestBytes = 1 << 20

// ServerConfig tunes the HTTP front end.
type ServerConfig struct {
	// DefaultTenant answers requests that omit "tenant". Empty selects the
	// sole tenant when the manager holds exactly one, else requests must
	// name one.
	DefaultTenant string
	// DefaultTimeout bounds a request's queue + coalesced wait when the
	// body sets no timeout_ms (≤0 ⇒ 30s). Execution itself is not
	// preempted; the admission gate bounds concurrent executions.
	DefaultTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ so serving
	// hotspots are profilable under load. Off by default: the profile
	// endpoints expose internals and cost CPU when scraped.
	EnablePprof bool
}

// MaximizeRequest is the POST /maximize body.
type MaximizeRequest struct {
	Tenant    string  `json:"tenant,omitempty"`
	K         int     `json:"k"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	Algorithm string  `json:"algorithm,omitempty"` // "dssa" (default) or "ssa"
	// TimeoutMS overrides the server's default wait deadline for this
	// request (0 keeps the default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// MaximizeResponse mirrors stopandstare.Result plus serving metadata.
type MaximizeResponse struct {
	Tenant      string   `json:"tenant"`
	Seeds       []uint32 `json:"seeds"`
	Influence   float64  `json:"influence"`
	Samples     int64    `json:"samples"`
	Iterations  int      `json:"iterations"`
	HitCap      bool     `json:"hit_cap,omitempty"`
	MemoryBytes int64    `json:"memory_bytes"`
	ElapsedMS   float64  `json:"elapsed_ms"`
	// Warm reports whether this query was served without growing the
	// session's RR stores: neither the coverage store nor, for SSA, the
	// verification store that keeps its Estimate-Inf sets (pure selection
	// and verification over already-resident samples).
	Warm bool `json:"warm"`
	// Coalesced reports a response copied from a concurrent identical
	// query's execution — bit-identical to running it, minus the cost.
	Coalesced bool `json:"coalesced"`
}

// TenantStatsResponse is one tenant's entry in the GET /stats body: the
// tenant's own counters plus its session's SessionStats, so a counter
// declared there reaches /stats with no further code. SessionStats is the
// zero value while the tenant is evicted or never queried; Nodes, Edges and
// Model are zero until the graph is first opened (lazy GraphFile tenants).
// Queries counts the tenant's admitted requests, coalesced followers
// included, and shadows SessionStats.Queries.
type TenantStatsResponse struct {
	Name      string `json:"name"`
	Resident  bool   `json:"resident"` // a live session (RR store) is in memory
	Nodes     int    `json:"nodes"`
	Edges     int64  `json:"edges"`
	Model     string `json:"model"`
	Queries   int64  `json:"queries"`
	Evictions int64  `json:"evictions"`
	Persists  int64  `json:"persists,omitempty"` // snapshots committed (eviction and retirement)
	stopandstare.SessionStats
}

// StatsResponse is the GET /stats body, as Manager.Stats builds it: the
// manager-wide counters plus one entry per tenant, sorted by name.
type StatsResponse struct {
	UptimeSec float64 `json:"uptime_sec"`
	// Queries counts admitted requests; Executed the ones that ran a
	// session query; Coalesced the followers served from a shared
	// execution.
	Queries   int64 `json:"queries"`
	Executed  int64 `json:"executed"`
	Coalesced int64 `json:"coalesced"`
	// Rejected429 counts queue-full admissions; Timeout503 requests
	// answered with a context error (HTTP 503), wherever the deadline or
	// cancellation fired; Evictions sessions dropped for budget; Spills
	// budget-enforcement passes that moved cold store bytes to a session's
	// disk tier instead.
	Rejected429 int64 `json:"rejected_429"`
	Timeout503  int64 `json:"timeout_503"`
	Evictions   int64 `json:"evictions"`
	Spills      int64 `json:"spills"`
	// StoreBytes sums resident session stores: the number the budget
	// bounds. StoreSpilledBytes sums session bytes parked in spill files
	// (not in StoreBytes); SpillFileBytes is their on-disk footprint.
	// BudgetBytes echoes the configured budget (0 = unlimited).
	StoreBytes        int64 `json:"store_bytes"`
	StoreSpilledBytes int64 `json:"store_spilled_bytes"`
	SpillFileBytes    int64 `json:"spill_file_bytes"`
	BudgetBytes       int64 `json:"budget_bytes"`
	// Recovered sums RR sets restored from snapshots across resident
	// sessions, samples this process never paid to generate; Persists
	// counts snapshots committed; SnapshotBytes sums current snapshot file
	// sizes; Recovering mirrors /readyz's warm-up condition.
	Recovered     int64 `json:"recovered"`
	Persists      int64 `json:"persists"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	Recovering    bool  `json:"recovering,omitempty"`
	// InFlight and Queued snapshot the admission gate.
	InFlight int                   `json:"in_flight"`
	Queued   int                   `json:"queued"`
	Tenants  []TenantStatsResponse `json:"tenants"`
}

// ReadyzResponse is the GET /readyz body: overall readiness plus the
// condition that gates it.
type ReadyzResponse struct {
	Ready      bool `json:"ready"`
	Recovering bool `json:"recovering,omitempty"`
}

// Server exposes a Manager over JSON/HTTP. Endpoints:
//
//	POST /maximize  {"tenant":"a","k":50,"epsilon":0.1,"algorithm":"dssa","timeout_ms":2000}
//	GET  /stats     manager + per-tenant snapshot
//	GET  /healthz   liveness: 200 whenever the process can answer at all
//	GET  /readyz    readiness: 503 while durable tenants are still
//	                recovering
//
// Liveness and readiness are deliberately split: a recovering process must
// NOT be restarted (that would lose exactly the state it is rebuilding) but
// must not receive traffic either — orchestrators probe /healthz to decide
// restarts and /readyz to decide routing.
//
// Backpressure surfaces as status codes: 429 (admission queue full) and
// 503 (deadline expired while waiting), both with Retry-After, so an
// overloaded server sheds load instead of accumulating it. A tenant whose
// session cannot be built or whose graph fails its content checks
// (ErrTenantUnavailable) answers 500; every other query failure is the
// request's and answers 400.
type Server struct {
	mgr   *Manager
	cfg   ServerConfig
	start time.Time
}

// NewServer wires a manager into an HTTP front end.
func NewServer(mgr *Manager, cfg ServerConfig) *Server {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	return &Server{mgr: mgr, cfg: cfg, start: time.Now()}
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/maximize", s.handleMaximize)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReadyz)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// resolveTenant maps an optional request tenant name onto the manager.
func (s *Server) resolveTenant(req string) (string, error) {
	if req != "" {
		return req, nil
	}
	if s.cfg.DefaultTenant != "" {
		return s.cfg.DefaultTenant, nil
	}
	names := s.mgr.Tenants()
	if len(names) == 1 {
		return names[0], nil
	}
	return "", fmt.Errorf("serving: %d tenants, request must name one", len(names))
}

// retryAfter derives the Retry-After hint from the limiter's observed slot
// wait, so backed-off clients return when a slot is actually likely —
// clamped to at least 1s (the header's useful minimum) and at most the
// configured default timeout (waiting longer than the server would have
// let the request queue is pointless).
func (s *Server) retryAfter() string {
	secs := int64(math.Ceil(s.mgr.limiter.EstimatedWait().Seconds()))
	if secs < 1 {
		secs = 1
	}
	if max := int64(math.Ceil(s.cfg.DefaultTimeout.Seconds())); secs > max && max >= 1 {
		secs = max
	}
	return strconv.FormatInt(secs, 10)
}

func (s *Server) handleMaximize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req MaximizeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	algo := stopandstare.DSSA
	if req.Algorithm != "" {
		a, err := stopandstare.ParseAlgorithm(req.Algorithm)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		algo = a
	}
	name, err := s.resolveTenant(req.Tenant)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	res, err := s.mgr.Maximize(ctx, name, stopandstare.Query{
		Algorithm: algo, K: req.K, Epsilon: req.Epsilon, Delta: req.Delta,
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrOverloaded):
			w.Header().Set("Retry-After", s.retryAfter())
			writeError(w, http.StatusTooManyRequests, err)
		case isContextErr(err):
			w.Header().Set("Retry-After", s.retryAfter())
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrTenantUnavailable):
			writeError(w, http.StatusInternalServerError, err)
		case errors.Is(err, ErrUnknownTenant):
			writeError(w, http.StatusNotFound, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, MaximizeResponse{
		Tenant:      name,
		Seeds:       res.Seeds,
		Influence:   res.InfluenceEstimate,
		Samples:     res.Samples,
		Iterations:  res.Iterations,
		HitCap:      res.HitCap,
		MemoryBytes: res.MemoryBytes,
		ElapsedMS:   float64(res.Elapsed.Microseconds()) / 1e3,
		Warm:        res.Warm,
		Coalesced:   res.Coalesced,
	})
}

// handleReadyz reports routing readiness: not ready while a StartRecovery
// pass is still warming durable tenants (queries would work but pay the
// recovery latency readiness exists to hide).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	resp := ReadyzResponse{Recovering: s.mgr.Recovering()}
	resp.Ready = !resp.Recovering
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	st := s.mgr.Stats()
	st.UptimeSec = time.Since(s.start).Seconds()
	writeJSON(w, http.StatusOK, st)
}
