// Durability of the remote tier: coordinator snapshots persist shard keys
// and nonces, workers snapshot their resident shard states, and any mix of
// restarts — worker with snapshot, worker behind the coordinator, worker
// with nothing — converges back to bit-identical observables by replaying
// at most the missing suffix.
package ris_test

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
)

// snapCluster is a remoteCluster variant whose workers keep per-address
// state directories across restarts.
type snapCluster struct {
	g      *graph.Graph
	dirs   map[string]string
	mu     sync.Mutex
	budget map[string]int64
	srvs   map[string]*ris.ShardServer
}

func newSnapCluster(t *testing.T, g *graph.Graph, addrs ...string) *snapCluster {
	c := &snapCluster{
		g: g, dirs: make(map[string]string),
		budget: make(map[string]int64), srvs: make(map[string]*ris.ShardServer),
	}
	for _, a := range addrs {
		c.dirs[a] = t.TempDir()
		c.srvs[a] = ris.NewShardServer(g, ris.ShardServerOptions{SamplingWorkers: 2, StateDir: c.dirs[a]})
	}
	return c
}

func (c *snapCluster) dial(addr string) (net.Conn, error) {
	c.mu.Lock()
	srv := c.srvs[addr]
	c.mu.Unlock()
	if srv == nil {
		return nil, fmt.Errorf("worker %s down", addr)
	}
	client, server := net.Pipe()
	go srv.ServeConn(server)
	return client, nil
}

// persistAll snapshots every worker's shard states.
func (c *snapCluster) persistAll(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for a, srv := range c.srvs {
		if _, err := srv.Persist(); err != nil {
			t.Fatalf("worker %s persist: %v", a, err)
		}
	}
}

// restart kills addr's process and starts a new one over the same state
// directory; withState=false wipes the directory first (disk lost too).
func (c *snapCluster) restart(t *testing.T, addr string, withState bool) *ris.ShardServer {
	t.Helper()
	c.mu.Lock()
	old := c.srvs[addr]
	dir := c.dirs[addr]
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if !withState {
		dir = t.TempDir()
		c.mu.Lock()
		c.dirs[addr] = dir
		c.mu.Unlock()
	}
	srv := ris.NewShardServer(c.g, ris.ShardServerOptions{SamplingWorkers: 2, StateDir: dir})
	c.mu.Lock()
	c.srvs[addr] = srv
	c.mu.Unlock()
	return srv
}

func snapClusterGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ChungLu(120, 700, 2.1, 5, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWorkerSnapshotRoundTrip(t *testing.T) {
	g := snapClusterGraph(t)
	s := mustRemoteSampler(t, g)
	cluster := newSnapCluster(t, g, "w0", "w1")
	opt := ris.StoreOptions{
		Workers: 2, Shards: 4, ShardWorkers: 2,
		RemoteWorkers: []string{"w0", "w1"}, RemoteDial: cluster.dial,
	}
	ref := ris.NewRefStore(s, 42)

	st := ris.NewStore(s, 42, opt)
	for _, c := range []int{1, 3, 40, 2, 90, 17} {
		st.GenerateTo(st.Len() + c)
		ref.GenerateTo(ref.Len() + c)
	}
	coordDir := t.TempDir()
	if _, err := st.Persist(coordDir); err != nil {
		t.Fatal(err)
	}
	cluster.persistAll(t)

	// Full restart of both worker processes over their state dirs: every
	// shard state comes back from the worker snapshot.
	// Remote stores run one shard per worker, so each worker restores
	// exactly its one shard state.
	for _, a := range []string{"w0", "w1"} {
		srv := cluster.restart(t, a, true)
		if srv.RecoveredShards() != 1 {
			t.Fatalf("worker %s recovered %d shards, want 1", a, srv.RecoveredShards())
		}
	}
	rec, rinfo, err := ris.Recover(s, 42, opt, coordDir)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Discarded != 0 || rinfo.Sets != ref.Len() {
		t.Fatalf("recovery info %+v, want clean %d sets", rinfo, ref.Len())
	}
	ris.AssertStoresEqual(t, "recovered", ref, rec)

	// Growth continues across the recovered coordinator and workers.
	ref.GenerateTo(ref.Len() + 60)
	rec.GenerateTo(rec.Len() + 60)
	ris.AssertStoresEqual(t, "regrown", ref, rec)

	// Worker behind the coordinator: w0 restarts from its (now stale)
	// snapshot while the coordinator persisted after more growth. The
	// coordinator must replay only the missing suffix onto w0's prefix.
	if _, err := rec.Persist(coordDir); err != nil {
		t.Fatal(err)
	}
	cluster.restart(t, "w0", true)
	rec2, _, err := ris.Recover(s, 42, opt, coordDir)
	if err != nil {
		t.Fatal(err)
	}
	ris.AssertStoresEqual(t, "worker-behind", ref, rec2)

	// Worker lost everything — process and disk: deterministic replay
	// rebuilds the whole shard from the persisted spec.
	if srv := cluster.restart(t, "w1", false); srv.RecoveredShards() != 0 {
		t.Fatalf("stateless restart recovered %d shards", srv.RecoveredShards())
	}
	rec3, _, err := ris.Recover(s, 42, opt, coordDir)
	if err != nil {
		t.Fatal(err)
	}
	ris.AssertStoresEqual(t, "worker-wiped", ref, rec3)
}

func mustRemoteSampler(t *testing.T, g *graph.Graph) *ris.Sampler {
	t.Helper()
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
