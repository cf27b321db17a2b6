// Command imworker is a shard-worker process for cross-process RR-set
// sharding: it opens a graph read-only and serves RR-set shards — arena +
// CSR postings blocks — to imserve coordinators over a small framed RPC
// protocol (generate / postings / coverage). A coordinator started with
// `imserve -workers host:a,host:b` keeps one shard per worker: sampling and
// index memory live in the worker processes, the coordinator holds only the
// mirror arenas its solvers scan.
//
//	imworker -graph nethept.sasg -addr 127.0.0.1:8378
//	imworker -graph nethept.sasg -unix /tmp/imworker.sock
//	imserve  -graph nethept.sasg -workers 127.0.0.1:8378,127.0.0.1:8379
//
// Workers are stateless-recoverable: a shard's contents are a pure function
// of its spec and the deterministic (seed, id) PRNG streams, so a restarted
// worker is driven back to the coordinator's state by replay — results stay
// bit-identical to a single-process store. With -state-dir the worker also
// snapshots its shard states on SIGTERM and recovers them (checksum-
// verified) at startup, so a planned restart resyncs from local disk and
// the coordinator replays only the delta instead of every shard. Use a
// mapped .sasg graph so all workers on a host share one set of graph pages.
//
// SIGINT/SIGTERM close the listeners and sever connections; coordinators
// reconnect with backoff and resume when the worker returns.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"stopandstare"
	"stopandstare/internal/cliutil"
	"stopandstare/internal/ris"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", ".sasg graph file (pages shared across workers)")
		preset      = flag.String("preset", "", "synthetic preset graph (see imgen); alternative to -graph")
		scale       = flag.Float64("scale", 1.0, "preset scale multiplier")
		genSeed     = flag.Uint64("gen-seed", 1, "preset generation seed (must match the coordinator's)")
		addr        = flag.String("addr", "127.0.0.1:8378", "TCP listen address (empty = none)")
		unixPath    = flag.String("unix", "", "unix socket path to listen on (empty = none)")
		workers     = flag.Int("workers", runtime.NumCPU(), "sampling workers for shards that request the worker default")
		maxShards   = flag.Int("max-shards", 64, "resident shard-state cap; least-recently-used states beyond it are dropped and rebuilt by replay")
		spillBudget = flag.String("spill-budget", "", "resident RR-byte budget across this worker's shards, e.g. 64MiB; above it cold arena segments and index blocks spill to disk (empty = no spill tier)")
		spillDir    = flag.String("spill-dir", "", "directory for shard spill files (empty = OS temp dir)")
		stateDir    = flag.String("state-dir", "", "directory for durable shard-state snapshots: recovered on startup, written on SIGTERM (empty = replay-only recovery)")
	)
	flag.Parse()

	spillBytes, err := cliutil.ParseSize(*spillBudget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imworker: %v\n", err)
		os.Exit(1)
	}

	var g *stopandstare.Graph
	switch {
	case *graphPath != "":
		g, err = stopandstare.OpenGraphFile(*graphPath)
	case *preset != "":
		g, err = stopandstare.GeneratePreset(*preset, *scale, *genSeed)
	default:
		err = fmt.Errorf("need -graph or -preset")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "imworker: %v\n", err)
		os.Exit(1)
	}

	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "imworker: %v\n", err)
			os.Exit(1)
		}
	}
	srv := ris.NewShardServer(g, ris.ShardServerOptions{
		SamplingWorkers: *workers, MaxShards: *maxShards,
		SpillBudgetBytes: spillBytes, SpillDir: *spillDir,
		StateDir: *stateDir,
	})
	if n := srv.RecoveredShards(); n > 0 {
		log.Printf("imworker: recovered %d shard state(s) from %s", n, *stateDir)
	}
	errc := make(chan error, 1)
	listening := 0
	if *addr != "" {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imworker: %v\n", err)
			os.Exit(1)
		}
		log.Printf("imworker: %d nodes, serving shards on %s", g.NumNodes(), ln.Addr())
		go func() { errc <- srv.Serve(ln) }()
		listening++
	}
	if *unixPath != "" {
		os.Remove(*unixPath) // a previous run's stale socket refuses rebinds
		ln, err := net.Listen("unix", *unixPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imworker: %v\n", err)
			os.Exit(1)
		}
		log.Printf("imworker: %d nodes, serving shards on unix:%s", g.NumNodes(), *unixPath)
		go func() { errc <- srv.Serve(ln) }()
		listening++
	}
	if listening == 0 {
		fmt.Fprintln(os.Stderr, "imworker: need -addr or -unix")
		os.Exit(1)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintf(os.Stderr, "imworker: %v\n", err)
			os.Exit(1)
		}
	case s := <-sig:
		log.Printf("imworker: %v received, closing", s)
		if *stateDir != "" {
			// Snapshot before Close drops the shard states: the restarted
			// worker then resyncs from its own disk instead of replaying
			// every shard through the coordinator.
			if info, err := srv.Persist(); err == nil {
				log.Printf("imworker: snapshot generation %d, %d sets, %d bytes", info.Generation, info.Sets, info.Bytes)
			} else {
				log.Printf("imworker: snapshot failed: %v (coordinators will replay)", err)
			}
		}
		srv.Close()
	}
	if *unixPath != "" {
		os.Remove(*unixPath)
	}
}
