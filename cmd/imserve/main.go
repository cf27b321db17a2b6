// Command imserve exposes the multi-tenant serving layer over JSON/HTTP:
// one process holds many (graph, model) sessions under a global RR-store
// byte budget, coalesces concurrent identical queries into one execution,
// and sheds overload as 429/503 backpressure instead of queueing without
// bound. Repeated or refined queries on a tenant reuse every RR sample
// generated so far, so warm queries cost selection, not sampling.
//
//	imserve -graph nethept.sasg -model IC -addr :8377
//	imserve -preset nethept -scale 0.5 -model LT
//	imserve -tenants 'acme=acme.sasg,globex=globex.sasg' -budget 2GiB
//
//	curl -s localhost:8377/maximize -d '{"k":50,"epsilon":0.1}'
//	curl -s localhost:8377/maximize -d '{"tenant":"acme","k":50}'
//	curl -s localhost:8377/stats
//
// Endpoints:
//
//	POST /maximize     {"tenant":"acme","k":50,"epsilon":0.1,"algorithm":"dssa","timeout_ms":5000}
//	GET  /stats        fleet snapshot: admission, coalescing and eviction counters plus per-tenant stores
//	GET  /healthz      liveness (200 whenever the process is up)
//	GET  /readyz       readiness (503 while recovering snapshots)
//	GET  /debug/pprof  profiling, only with -pprof
//
// Tenants named via -tenants open their graph files lazily on first
// query: a fleet of mapped .sasg tenants costs ~0 resident bytes until
// traffic arrives, and under -budget pressure cold tenants' RR stores are
// evicted (and rebuilt bit-identically on re-admission) while compiled
// sampling plans stay cached. With -spill-budget each session also gets a
// disk spill tier: under -budget pressure cold RR bytes move to spill
// files first, and eviction becomes the last resort.
//
// With -state-dir the RR stores are durable: each tenant snapshots into
// state-dir/<tenant>/ before budget evictions and on SIGTERM drain, and a
// restarted process recovers the snapshots (checksum-verified; corrupted
// suffixes resampled deterministically) instead of resampling from
// scratch, so warm answers survive restarts. Orphaned snapshot debris and
// stale -spill-dir files from a crashed predecessor are swept at startup.
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
// requests get up to -drain to finish, then sessions are snapshotted
// (-state-dir) and retired.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"stopandstare"
	"stopandstare/internal/cliutil"
	"stopandstare/internal/ris"
	"stopandstare/internal/serving"
)

// options collects the flag values; split from main so tests build the
// same stack without flags or sockets.
type options struct {
	graphPath string
	preset    string
	scale     float64
	model     string
	seed      uint64
	workers   int

	tenants       string // extra tenants, "name=path,name=path"
	defaultTenant string
	budget        string
	spillBudget   string // per-session RR-store spill threshold
	spillDir      string
	stateDir      string // durable per-tenant RR-store snapshots
	inFlight      int
	queued        int
	timeout       time.Duration
	pprof         bool
}

// parseSize parses a byte count with an optional binary-unit suffix:
// "1048576", "64KiB", "512MiB", "2GiB". A bare number is bytes.
func parseSize(s string) (int64, error) { return cliutil.ParseSize(s) }

// tenantSpec is one -tenants entry: a named graph file, opened lazily.
type tenantSpec struct{ name, path string }

// parseTenants splits a "name=path,name=path" list.
func parseTenants(s string) ([]tenantSpec, error) {
	var specs []tenantSpec
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, path, ok := strings.Cut(part, "=")
		name, path = strings.TrimSpace(name), strings.TrimSpace(path)
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("bad tenant spec %q (want name=path)", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate tenant %q", name)
		}
		seen[name] = true
		specs = append(specs, tenantSpec{name, path})
	}
	return specs, nil
}

// buildManager assembles the manager and server config from the options:
// the -graph/-preset pair becomes the "default" tenant, -tenants entries
// become lazy graph-file tenants.
func buildManager(o options) (*serving.Manager, serving.ServerConfig, error) {
	var scfg serving.ServerConfig
	mdl, err := stopandstare.ParseModel(o.model)
	if err != nil {
		return nil, scfg, err
	}
	budget, err := parseSize(o.budget)
	if err != nil {
		return nil, scfg, err
	}
	spillBudget, err := parseSize(o.spillBudget)
	if err != nil {
		return nil, scfg, err
	}
	specs, err := parseTenants(o.tenants)
	if err != nil {
		return nil, scfg, err
	}
	if o.graphPath == "" && o.preset == "" && len(specs) == 0 {
		return nil, scfg, fmt.Errorf("need -graph, -preset or -tenants")
	}
	sessOpts := stopandstare.SessionOptions{
		Seed: o.seed, Workers: o.workers,
		SpillBudgetBytes: spillBudget, SpillDir: o.spillDir,
	}

	mgr := serving.NewManager(serving.Config{
		BudgetBytes: budget,
		MaxInFlight: o.inFlight,
		MaxQueued:   o.queued,
		StateDir:    o.stateDir,
	})
	fail := func(err error) (*serving.Manager, serving.ServerConfig, error) {
		mgr.Close()
		return nil, scfg, err
	}

	defaultName := o.defaultTenant
	switch {
	case o.graphPath != "":
		// Lazy: the file is sniffed and opened on the first query, so a
		// mapped .sasg tenant costs nothing resident until traffic hits.
		if err := mgr.AddTenant("default", serving.TenantConfig{
			GraphFile: o.graphPath, Model: mdl, Session: sessOpts,
		}); err != nil {
			return fail(err)
		}
		if defaultName == "" {
			defaultName = "default"
		}
	case o.preset != "":
		g, err := stopandstare.GeneratePreset(o.preset, o.scale, o.seed)
		if err != nil {
			return fail(err)
		}
		if err := mgr.AddTenant("default", serving.TenantConfig{
			Graph: g, Model: mdl, Session: sessOpts,
		}); err != nil {
			return fail(err)
		}
		if defaultName == "" {
			defaultName = "default"
		}
	}
	for _, spec := range specs {
		if err := mgr.AddTenant(spec.name, serving.TenantConfig{
			GraphFile: spec.path, Model: mdl, Session: sessOpts,
		}); err != nil {
			return fail(err)
		}
	}

	scfg = serving.ServerConfig{
		DefaultTenant:  defaultName,
		DefaultTimeout: o.timeout,
		EnablePprof:    o.pprof,
	}
	return mgr, scfg, nil
}

// serveAndDrain runs the server on ln until it fails or a signal arrives,
// then shuts down gracefully: the listener closes immediately (new
// connections are refused), in-flight requests get up to drain to finish.
func serveAndDrain(hs *http.Server, ln net.Listener, drain time.Duration, sig <-chan os.Signal) error {
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("imserve: %v received, draining for up to %v", s, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		return nil
	}
}

func main() {
	var o options
	flag.StringVar(&o.graphPath, "graph", "", ".sasg graph file for the default tenant")
	flag.StringVar(&o.preset, "preset", "", "synthetic preset graph for the default tenant (see imgen)")
	flag.Float64Var(&o.scale, "scale", 1.0, "preset scale multiplier")
	flag.StringVar(&o.model, "model", "IC", "propagation model: IC or LT")
	flag.Uint64Var(&o.seed, "seed", 1, "session RR-stream seed")
	flag.IntVar(&o.workers, "sampling-workers", runtime.NumCPU(), "sampling workers per session")
	flag.StringVar(&o.tenants, "tenants", "", "additional tenants as name=path,... (graph files opened lazily)")
	flag.StringVar(&o.defaultTenant, "default-tenant", "", "tenant answering requests that omit one")
	flag.StringVar(&o.budget, "budget", "", "global RR-store budget, e.g. 512MiB or 2GiB (empty = unbounded)")
	flag.StringVar(&o.spillBudget, "spill-budget", "", "per-session resident RR-store budget, e.g. 64MiB; above it cold arena segments and index blocks spill to disk (empty = no spill tier)")
	flag.StringVar(&o.spillDir, "spill-dir", "", "directory for RR-store spill files (empty = OS temp dir)")
	flag.StringVar(&o.stateDir, "state-dir", "", "directory for durable per-tenant RR-store snapshots: recovered on startup, written before evictions and on SIGTERM drain (empty = not durable)")
	flag.IntVar(&o.inFlight, "inflight", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
	flag.IntVar(&o.queued, "queue", 0, "max queries waiting beyond -inflight (0 = 4x inflight, -1 = none)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "default per-request wait deadline")
	flag.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	addr := flag.String("addr", ":8377", "listen address")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight requests")
	flag.Parse()

	mgr, scfg, err := buildManager(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imserve: %v\n", err)
		os.Exit(1)
	}
	defer mgr.Close()

	// Startup hygiene: sweep orphans a crashed predecessor left behind —
	// spill files are process-private scratch (useless across restarts),
	// and uncommitted snapshot debris is swept per-tenant by StartRecovery
	// before recovery reads the directory.
	if o.spillDir != "" {
		if removed, err := ris.CleanSpillDir(o.spillDir); err == nil && len(removed) > 0 {
			log.Printf("imserve: removed %d orphaned spill file(s) from %s", len(removed), o.spillDir)
		}
	}
	// Warm durable tenants in the background (no-op without -state-dir):
	// the listener below comes up immediately, /readyz answers 503 until
	// the recovery pass finishes, then traffic lands on recovered stores.
	mgr.StartRecovery()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imserve: %v\n", err)
		os.Exit(1)
	}
	log.Printf("imserve: tenants %v, model %s, listening on %s", mgr.Tenants(), o.model, ln.Addr())
	// Header/idle timeouts guard the long-running process against slow-
	// header and idle-connection exhaustion. No WriteTimeout: a cold query
	// on a large graph legitimately samples for a long time.
	hs := &http.Server{
		Handler:           serving.NewServer(mgr, scfg).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := serveAndDrain(hs, ln, *drain, sig); err != nil {
		fmt.Fprintf(os.Stderr, "imserve: %v\n", err)
		os.Exit(1)
	}
	log.Printf("imserve: drained, retiring sessions")
}
