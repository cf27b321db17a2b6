// Remote leg of the differential harness: the same SSA/D-SSA workloads run
// against remote-sharded stores whose shard workers are in-process
// ShardServers dialed over net.Pipe — the full wire protocol (open, stats,
// streamed generate, postings, coverage) runs, minus only the OS socket.
// The reference stream, in-process-sharded and remote-sharded must stay
// bit-identical in every observable, and worker failures must surface as
// typed errors, never hangs.
package ris_test

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"

	"stopandstare/internal/core"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
)

// remoteCluster maps fake worker addresses onto in-process ShardServers. Its
// dial method is a ris.DialFunc: each dial hands the server one net.Pipe end
// (served on its own goroutine, exactly like an accepted conn) and the client
// the other. The cluster can sever live connections (a network blip), restart
// a worker with empty state (a process restart — coordinators must replay),
// or kill a worker outright (dials fail).
type remoteCluster struct {
	g       *graph.Graph
	mu      sync.Mutex
	servers map[string]*ris.ShardServer
	conns   []net.Conn
}

func newRemoteCluster(g *graph.Graph, addrs ...string) *remoteCluster {
	c := &remoteCluster{g: g, servers: make(map[string]*ris.ShardServer)}
	for _, a := range addrs {
		c.servers[a] = ris.NewShardServer(g, ris.ShardServerOptions{SamplingWorkers: 2})
	}
	return c
}

func (c *remoteCluster) dial(addr string) (net.Conn, error) {
	c.mu.Lock()
	srv := c.servers[addr]
	c.mu.Unlock()
	if srv == nil {
		return nil, fmt.Errorf("worker %s down", addr)
	}
	client, server := net.Pipe()
	go srv.ServeConn(server)
	c.mu.Lock()
	c.conns = append(c.conns, client)
	c.mu.Unlock()
	return client, nil
}

// severConns closes every connection handed out so far; worker state
// survives, so clients must reconnect and reconcile via stats.
func (c *remoteCluster) severConns() {
	c.mu.Lock()
	conns := c.conns
	c.conns = nil
	c.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
}

// restart replaces addr's server with a fresh empty one: the worker lost all
// shard state and the coordinator must rebuild it by deterministic replay.
func (c *remoteCluster) restart(addr string) {
	c.mu.Lock()
	old := c.servers[addr]
	c.servers[addr] = ris.NewShardServer(c.g, ris.ShardServerOptions{SamplingWorkers: 2})
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// kill removes addr's worker entirely; subsequent dials fail.
func (c *remoteCluster) kill(addr string) {
	c.mu.Lock()
	srv := c.servers[addr]
	delete(c.servers, addr)
	c.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// remoteTestGraph is a small weighted-cascade graph for the remote legs
// that drive a store directly.
func remoteTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ChungLu(120, 700, 2.1, 5, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustRemoteSampler(t *testing.T, g *graph.Graph) *ris.Sampler {
	t.Helper()
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runCoreRemote is runCore on a remote-sharded store: one shard per
// in-process pipe worker.
func runCoreRemote(t *testing.T, g *graph.Graph, s *ris.Sampler, algo string, nworkers int) (*core.Result, []core.Checkpoint) {
	t.Helper()
	addrs := make([]string, nworkers)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("worker-%d", i)
	}
	cluster := newRemoteCluster(g, addrs...)
	return runStore(t, s, algo, ris.StoreOptions{Workers: 2, RemoteWorkers: addrs, RemoteDial: cluster.dial})
}

// TestDifferentialRemoteVsFlat runs SSA and D-SSA on the reference stream and on in-process-sharded and remote-sharded stores
// across {1, 2} workers, demanding bit-identical Seeds, Influence, sample
// counts and per-checkpoint traces: cross-process sharding must be
// invisible in every observable.
func TestDifferentialRemoteVsFlat(t *testing.T) {
	g := diffGraph(t)
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"ssa", "dssa"} {
		refRes, refTrace := runCoreRef(t, s, algo)
		for _, nw := range []int{1, 2} {
			ctx := fmt.Sprintf("%s/remote-workers=%d", algo, nw)
			res, trace := runCoreRemote(t, g, s, algo, nw)
			assertResultsIdentical(t, ctx, refRes, res, refTrace, trace)
			// The in-process store at the same shard count must agree too
			// (reference vs in-process is covered elsewhere; this pins
			// remote against both in one place).
			sres, strace := runCore(t, s, algo, nw, 1)
			assertResultsIdentical(t, ctx+"/vs-inprocess", sres, res, strace, trace)
		}
	}
}

// TestRemoteStoreParity exercises the store surface directly against the
// reference stream — Set/ForEachSet over the mirror arena, PostingsRange and
// CoverageRangeSeeds answered worker-side — through a connection blip
// (reconnect, same worker state) and a worker restart (empty state,
// deterministic replay). Parity must hold after each disruption.
func TestRemoteStoreParity(t *testing.T) {
	g := diffGraph(t)
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	ref := ris.NewRefStore(s, 31)
	cluster := newRemoteCluster(g, "w0", "w1")
	st := ris.NewStore(s, 31, ris.StoreOptions{
		RemoteWorkers: []string{"w0", "w1"}, RemoteDial: cluster.dial,
	})
	sc, ok := st.(*ris.ShardedCollection)
	if !ok || !sc.Remote() {
		t.Fatalf("NewStore with RemoteWorkers returned %T (remote=%v)", st, ok && sc.Remote())
	}

	seeds := []uint32{3, 17, 42, 99, 151}
	checkParity := func(phase string, upto int) {
		t.Helper()
		ref.GenerateTo(upto)
		st.GenerateTo(upto)
		if st.Len() != ref.Len() || st.Items() != ref.Items() || st.Width() != ref.Width() {
			t.Fatalf("%s: len/items/width %d/%d/%d vs reference %d/%d/%d", phase,
				st.Len(), st.Items(), st.Width(), ref.Len(), ref.Items(), ref.Width())
		}
		for i := 0; i < upto; i++ {
			if !slices.Equal(st.Set(i), ref.Set(i)) {
				t.Fatalf("%s: Set(%d) = %v, reference %v", phase, i, st.Set(i), ref.Set(i))
			}
		}
		n := 0
		st.ForEachSet(0, upto, func(i int, set []uint32) {
			if !slices.Equal(set, ref.Set(i)) {
				t.Fatalf("%s: ForEachSet(%d) = %v, reference %v", phase, i, set, ref.Set(i))
			}
			n++
		})
		if n != upto {
			t.Fatalf("%s: ForEachSet visited %d of %d", phase, n, upto)
		}
		for _, v := range seeds {
			var got, want []int32
			it := st.PostingsRange(v, 0, upto)
			for {
				run, ok := it.Next()
				if !ok {
					break
				}
				got = append(got, run...)
			}
			fit := ref.PostingsRange(v, 0, upto)
			for {
				run, ok := fit.Next()
				if !ok {
					break
				}
				want = append(want, run...)
			}
			// Remote postings are ascending per shard, the reference globally; the
			// contract only promises set equality across runs.
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: postings(%d) = %v, reference %v", phase, v, got, want)
			}
		}
		if got, want := st.CoverageRangeSeeds(seeds, 0, upto), ref.CoverageRangeSeeds(seeds, 0, upto); got != want {
			t.Fatalf("%s: coverage %d vs reference %d", phase, got, want)
		}
		if got, want := st.CoverageRangeSeeds(seeds, upto/3, upto), ref.CoverageRangeSeeds(seeds, upto/3, upto); got != want {
			t.Fatalf("%s: window coverage %d vs reference %d", phase, got, want)
		}
	}

	checkParity("initial", 300)
	cluster.severConns() // network blip: reconnect, worker state intact
	checkParity("after-sever", 600)
	cluster.restart("w1") // worker restart: empty state, replay rebuilds it
	checkParity("after-restart", 900)
}

// TestRemoteWorkerKillTypedError pins the degraded mode: with a worker gone
// for good, a store operation must fail after the bounded reconnect budget
// with a *ShardError wrapping ErrShardUnreachable naming the dead worker —
// a typed, inspectable error, not a hang and not a raw panic.
func TestRemoteWorkerKillTypedError(t *testing.T) {
	g := diffGraph(t)
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	cluster := newRemoteCluster(g, "w0", "w1")
	st := ris.NewStore(s, 31, ris.StoreOptions{
		RemoteWorkers: []string{"w0", "w1"}, RemoteDial: cluster.dial,
	})
	st.GenerateTo(200)
	wantLen, wantItems := st.Len(), st.Items()
	cluster.kill("w1")

	opErr := func() (rerr error) {
		defer func() {
			if p := recover(); p != nil {
				se, ok := p.(*ris.ShardError)
				if !ok {
					panic(p)
				}
				rerr = se
			}
		}()
		st.GenerateTo(400)
		return nil
	}()
	if opErr == nil {
		t.Fatal("GenerateTo succeeded with a dead worker")
	}
	if !errors.Is(opErr, ris.ErrShardUnreachable) {
		t.Fatalf("error %v does not wrap ErrShardUnreachable", opErr)
	}
	var se *ris.ShardError
	if !errors.As(opErr, &se) || se.Addr != "w1" || se.Op != "generate" {
		t.Fatalf("ShardError = %+v, want addr w1 op generate", se)
	}
	// The failed multi-shard generate must have rolled back: the mirrors
	// (including the live worker's) expose the pre-failure stream exactly.
	if st.Len() != wantLen || st.Items() != wantItems {
		t.Fatalf("after failed generate: len/items %d/%d, want %d/%d (rollback leaked)",
			st.Len(), st.Items(), wantLen, wantItems)
	}
}
