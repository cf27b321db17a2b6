package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stopandstare"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/serving"
)

// This file is the serving load bench: imserve's stack (serving.Manager
// behind serving.Server) talking to itself over real localhost HTTP, so
// the measured p50/p99 and queries/sec include JSON, the admission gate,
// coalescing and the sampler — everything a client would see. CI runs the
// suite in smoke mode and jq-asserts the serving claims
// (coalesced throughput at least serial, overload sheds 429s without
// erroring) on every commit.

// LoadRun is one load-generator measurement: a tenant/query mix driven by
// concurrent clients against an in-process server.
type LoadRun struct {
	Name    string `json:"name"`
	Tenants int    `json:"tenants"`
	Clients int    `json:"clients"`
	// Queries counts completed requests (any status); QPS divides them by
	// the wall-clock span of the run.
	Queries int     `json:"queries"`
	QPS     float64 `json:"qps"`
	// P50Ms/P99Ms are client-observed latency percentiles across all
	// completed requests.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// Status histograms HTTP statuses ("200", "429", ...); Errors counts
	// transport failures and statuses outside {200, 429, 503}.
	Status map[string]int `json:"status"`
	Errors int            `json:"errors"`
	// Executed/Coalesced/Evictions snapshot the manager counters after
	// the run (deltas: each run uses a fresh manager).
	Executed  int64 `json:"executed"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	// Growths (the shared session's store top-ups) and ColdGrowths (a solo
	// cold run of the same query) are reported for the coalescing runs:
	// equal values pin "N concurrent identical queries, one top-up
	// sequence".
	Growths     int64 `json:"growths,omitempty"`
	ColdGrowths int64 `json:"cold_growths,omitempty"`
}

// LoadReport is the schema of the serving throughput report.
type LoadReport struct {
	Schema    string    `json:"schema"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	CPUs      int       `json:"cpus"`
	Timestamp string    `json:"timestamp"`
	Smoke     bool      `json:"smoke"`
	Runs      []LoadRun `json:"runs"`
}

// loadScale sizes the suite: smoke keeps CI fast, full measures properly.
type loadScale struct {
	nodes, edges     int
	tenants          int
	clients, queries int
}

func scaleFor(smoke bool) loadScale {
	if smoke {
		return loadScale{nodes: 600, edges: 3000, tenants: 3, clients: 8, queries: 96}
	}
	return loadScale{nodes: 4000, edges: 24000, tenants: 4, clients: 12, queries: 480}
}

// loadClient fires one /maximize request and records what came back.
type loadClient struct {
	url  string
	http *http.Client
}

func (c *loadClient) maximize(body []byte) (status int, elapsed time.Duration, err error) {
	start := time.Now()
	resp, err := c.http.Post(c.url+"/maximize", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, time.Since(start), err
	}
	// Drain so the connection is reused; the decoded body is not needed.
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), nil
}

// queryBody marshals one request body; failures are programming errors.
func queryBody(tenant string, k int, eps float64, timeoutMS int) []byte {
	b, err := json.Marshal(serving.MaximizeRequest{
		Tenant: tenant, K: k, Epsilon: eps, TimeoutMS: timeoutMS,
	})
	if err != nil {
		panic(err)
	}
	return b
}

// runLoad drives queries through clients concurrent workers. pick(i,
// rng) chooses the body of the i-th query. The returned run has status,
// latency and manager-counter accounting filled in.
func runLoad(name string, mgr *serving.Manager, ts *httptest.Server, sc loadScale,
	clients, queries int, pick func(i int, rng *rand.Rand) []byte) LoadRun {
	run := LoadRun{Name: name, Tenants: sc.tenants, Clients: clients, Status: map[string]int{}}
	latencies := make([]time.Duration, queries)
	statuses := make([]int, queries)
	errs := make([]error, queries)

	var next atomic.Int64
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &loadClient{url: ts.URL, http: ts.Client()}
			rng := rand.New(rand.NewSource(int64(c) + 1))
			<-gate
			for {
				i := int(next.Add(1)) - 1
				if i >= queries {
					return
				}
				statuses[i], latencies[i], errs[i] = cl.maximize(pick(i, rng))
			}
		}(c)
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	span := time.Since(start)

	for i := 0; i < queries; i++ {
		switch {
		case errs[i] != nil:
			run.Errors++
		case statuses[i] == http.StatusOK, statuses[i] == http.StatusTooManyRequests,
			statuses[i] == http.StatusServiceUnavailable:
			run.Status[fmt.Sprint(statuses[i])]++
		default:
			run.Errors++
		}
	}
	run.Queries = queries
	run.QPS = float64(queries) / span.Seconds()
	run.P50Ms, run.P99Ms = percentilesMS(latencies)
	st := mgr.Stats()
	run.Executed, run.Coalesced, run.Evictions = st.Executed, st.Coalesced, st.Evictions
	return run
}

// percentilesMS returns the 50th and 99th latency percentiles in
// milliseconds (nearest-rank).
func percentilesMS(lat []time.Duration) (p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(p float64) time.Duration {
		i := int(p*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	toMS := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	return toMS(rank(0.50)), toMS(rank(0.99))
}

// tenantName names the i-th bench tenant.
func tenantName(i int) string { return fmt.Sprintf("tenant%d", i) }

// newLoadStack builds a fresh manager over the given graphs plus an
// httptest server in front of it. Each run gets its own manager (cold
// stores, clean counters); the graphs — and their compiled plans — are
// shared across runs, exactly like a fleet restarting its serving layer
// over long-lived tenant data.
func newLoadStack(graphs []*graph.Graph, cfg serving.Config, seed uint64) (*serving.Manager, *httptest.Server, error) {
	mgr := serving.NewManager(cfg)
	for i, g := range graphs {
		if err := mgr.AddTenant(tenantName(i), serving.TenantConfig{
			Graph: g, Model: stopandstare.IC,
			Session: stopandstare.SessionOptions{Seed: seed + uint64(i)},
		}); err != nil {
			mgr.Close()
			return nil, nil, err
		}
	}
	ts := httptest.NewServer(serving.NewServer(mgr, serving.ServerConfig{}).Handler())
	return mgr, ts, nil
}

// RunLoadSuite measures the serving layer under four workloads:
//
//   - uniform: clients spread queries evenly over tenants and k values —
//     every tenant's store stays warm, the baseline serving mix.
//   - zipf: tenant choice is Zipf-skewed (s=1.2), the realistic fleet
//     shape where a few tenants dominate; under a store budget the cold
//     tail pays eviction/re-admission while the head stays resident.
//   - coalesce/serial vs coalesce/concurrent: N identical queries on one
//     tenant, each against a reset (cold) tenant vs all-at-once on one.
//     Concurrent arrivals share one execution (the manager holds the
//     leader until every follower joins its flight, so the "one
//     execution" count is deterministic), which CI guards as coalesced
//     throughput ≥ unshared serial throughput.
//   - overload: a burst of distinct queries against MaxInFlight=2 with a
//     2-deep queue — the excess must come back as 429/503 backpressure,
//     not as errors or memory growth.
func RunLoadSuite(seed uint64, smoke bool) (*LoadReport, error) {
	sc := scaleFor(smoke)
	rep := &LoadReport{
		Schema:    "stopandstare-load/1",
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.GOMAXPROCS(0),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Smoke:     smoke,
	}
	graphs := make([]*graph.Graph, sc.tenants)
	for i := range graphs {
		g, err := gen.ChungLu(sc.nodes, int64(sc.edges), 2.1, seed+uint64(100+i),
			graph.BuildOptions{Model: graph.WeightedCascade})
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	ks := []int{5, 10, 20}
	const eps = 0.3

	// Uniform and Zipf tenant mixes. The queue is sized to the client
	// count: a closed-loop load (each client one request at a time) must
	// always be admitted, even on a single-core box where the default
	// GOMAXPROCS-derived capacity would be smaller than the client fleet —
	// these runs measure latency under load, not backpressure.
	for _, mix := range []string{"uniform", "zipf"} {
		mgr, ts, err := newLoadStack(graphs, serving.Config{MaxQueued: sc.clients}, seed)
		if err != nil {
			return nil, err
		}
		pick := func(i int, rng *rand.Rand) []byte {
			ti := rng.Intn(sc.tenants)
			if mix == "zipf" {
				// Skew tenant choice: rank 0 dominates, the tail goes cold.
				// A fresh Zipf over the client's own source keeps clients
				// independent (rand.Zipf is not concurrency-safe).
				ti = int(rand.NewZipf(rng, 1.2, 1, uint64(sc.tenants-1)).Uint64())
			}
			return queryBody(tenantName(ti), ks[rng.Intn(len(ks))], eps, 0)
		}
		rep.Runs = append(rep.Runs, runLoad(mix, mgr, ts, sc, sc.clients, sc.queries, pick))
		ts.Close()
		mgr.Close()
	}

	// Coalescing pair: the same nco identical queries, unshared-serial vs
	// concurrent. Serial resets the tenant between queries so each pays
	// its own cold execution — the no-sharing baseline; with a warm
	// session the repeats would be near-free (a different effect, not
	// coalescing's) and the comparison would measure HTTP noise.
	// Coalescing collapses the same N executions into one when the
	// arrivals overlap, which is what the qps ratio — CI-guarded as
	// concurrent ≥ serial — shows.
	nco := sc.clients * 2
	body := queryBody(tenantName(0), 10, eps, 0)
	{
		mgr, ts, err := newLoadStack(graphs, serving.Config{}, seed)
		if err != nil {
			return nil, err
		}
		var resetErr error
		run := runLoad("coalesce/serial", mgr, ts, sc, 1, nco,
			func(i int, _ *rand.Rand) []byte {
				if i > 0 {
					// Single client, so pick runs between requests: drop
					// and re-admit the tenant to make the next query cold.
					if err := mgr.RemoveTenant(tenantName(0)); err != nil {
						resetErr = err
					}
					if err := mgr.AddTenant(tenantName(0), serving.TenantConfig{
						Graph: graphs[0], Model: stopandstare.IC,
						Session: stopandstare.SessionOptions{Seed: seed},
					}); err != nil {
						resetErr = err
					}
				}
				return body
			})
		if resetErr != nil {
			return nil, resetErr
		}
		run.Growths, run.ColdGrowths = coalesceGrowths(mgr, graphs[0], seed)
		rep.Runs = append(rep.Runs, run)
		ts.Close()
		mgr.Close()
	}
	{
		var mgr *serving.Manager
		cfg := serving.Config{
			MaxInFlight: sc.clients,
			// Hold the leader until every follower has joined its flight:
			// with all nco queries identical and concurrent, exactly one
			// executes — deterministically, not just on a fast machine.
			OnExecute: func(string) {
				deadline := time.Now().Add(30 * time.Second)
				for mgr.Stats().Coalesced < int64(nco-1) && time.Now().Before(deadline) {
					time.Sleep(50 * time.Microsecond)
				}
			},
		}
		var ts *httptest.Server
		var err error
		mgr, ts, err = newLoadStack(graphs, cfg, seed)
		if err != nil {
			return nil, err
		}
		run := runLoad("coalesce/concurrent", mgr, ts, sc, nco, nco,
			func(int, *rand.Rand) []byte { return body })
		run.Growths, run.ColdGrowths = coalesceGrowths(mgr, graphs[0], seed)
		rep.Runs = append(rep.Runs, run)
		ts.Close()
		mgr.Close()
	}

	// Overload: a burst of distinct (non-coalescable) queries against a
	// tiny admission gate. Timeouts are short so queued requests shed as
	// 503 instead of stretching the run.
	{
		var mgr *serving.Manager
		cfg := serving.Config{
			MaxInFlight: 2,
			MaxQueued:   -1, // no wait queue: every excess request is a 429
			// Hold the first executions until at least one rejection has
			// happened, so an overloaded run provably sheds load (the CI
			// guard asserts 429s > 0) instead of racing the burst.
			OnExecute: func(string) {
				deadline := time.Now().Add(30 * time.Second)
				for mgr.Stats().Rejected < 1 && time.Now().Before(deadline) {
					time.Sleep(50 * time.Microsecond)
				}
			},
		}
		var ts *httptest.Server
		var err error
		mgr, ts, err = newLoadStack(graphs, cfg, seed)
		if err != nil {
			return nil, err
		}
		nov := sc.clients * 4
		pick := func(i int, rng *rand.Rand) []byte {
			// Distinct (tenant, k) per query index so nothing coalesces.
			return queryBody(tenantName(i%sc.tenants), 2+i/sc.tenants, eps, 2000)
		}
		rep.Runs = append(rep.Runs, runLoad("overload", mgr, ts, sc, nov, nov, pick))
		ts.Close()
		mgr.Close()
	}
	return rep, nil
}

// coalesceGrowths reads the shared session's top-up count and computes the
// cold-oracle count for the same query, so the report can pin "no extra
// top-ups" mechanically.
func coalesceGrowths(mgr *serving.Manager, g *graph.Graph, seed uint64) (got, want int64) {
	for _, ten := range mgr.Stats().Tenants {
		if ten.Name == tenantName(0) {
			got = ten.Session.Growths
		}
	}
	sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{Seed: seed})
	if err != nil {
		return got, -1
	}
	if _, err := sess.Maximize(stopandstare.Query{K: 10, Epsilon: 0.3}); err != nil {
		return got, -1
	}
	return got, sess.Stats().Growths
}

// WriteLoadJSON runs the load suite and writes the report to path.
func WriteLoadJSON(path string, seed uint64, smoke bool) error {
	rep, err := RunLoadSuite(seed, smoke)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing load report: %w", err)
	}
	return nil
}
