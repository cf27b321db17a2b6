package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	ss "stopandstare"
	"stopandstare/internal/baselines"
	"stopandstare/internal/ris"
)

// sweepReps is how often each topology of the sweep generates its stream; the
// median rate is reported.
const sweepReps = 3

// sweepAndBaseline adds the two one-off measurements of the cold_sparse
// trace. The topology sweep generates the RR stream of the sweep cell on a
// flat store with one worker and with nproc, on two in-process shards, and on
// two ShardServers behind unix sockets. The baseline runs IMM once on the
// baseline cell next to a cold D-SSA run: the paper's yardstick.
func sweepAndBaseline(r *report, e *env) error {
	cell := e.w.sweepCell
	t := e.w.tenants[cell.tenant]
	g, err := ss.OpenGraphFile(filepath.Join(e.dir, t.file()))
	if err != nil {
		return err
	}
	defer g.Close()
	defer ss.DropCachedPlans(g)
	opts := ss.Options{K: cell.k, Epsilon: cell.eps, Seed: streamSeed, Workers: e.nproc}
	res, err := ss.Maximize(g, t.model, cell.algo, opts)
	if err != nil {
		return err
	}
	target := int(res.Samples)
	sampler, err := ris.NewSampler(g, t.model)
	if err != nil {
		return err
	}
	sampler.Plan()
	rate := func(opt ris.StoreOptions) float64 {
		var rates []float64
		for i := 0; i < sweepReps; i++ {
			st := ris.NewStore(sampler, streamSeed, opt)
			t0 := time.Now()
			st.GenerateTo(target)
			rates = append(rates, float64(target)/time.Since(t0).Seconds())
		}
		return median(rates)
	}
	w1 := rate(ris.StoreOptions{Workers: 1})
	r.set("ris.generate_rr_per_s.w1", w1)
	if e.nproc > 1 {
		wN := rate(ris.StoreOptions{Workers: e.nproc})
		r.set("ris.generate_rr_per_s.wN", wN)
		r.set("ris.generate_scaling_eff", wN/(float64(e.nproc)*w1))
		r.set("ris.generate_rr_per_s.sharded2", rate(ris.StoreOptions{Workers: e.nproc, Shards: 2}))
		remote, wire, err := remoteRate(e, g, target, rate)
		if err != nil {
			return err
		}
		r.set("ris.generate_rr_per_s.remote2", remote)
		r.set("ris.remote_wire_mb", wire)
	} else {
		r.infof("nproc=1: the parallel legs of the topology sweep were not run and read 0")
	}

	cell = e.w.baselineCell
	t = e.w.tenants[cell.tenant]
	opts.K = cell.k
	t0 := time.Now()
	dssa, err := ss.Maximize(g, t.model, ss.DSSA, opts)
	if err != nil {
		return err
	}
	dssaTime := time.Since(t0)
	imm, err := baselines.IMM(sampler, baselines.Options{K: cell.k, Epsilon: cell.eps, Seed: streamSeed, Workers: e.nproc})
	if err != nil {
		return err
	}
	r.set("baselines.imm_solve_s", imm.Elapsed.Seconds())
	r.set("baselines.imm_rr_sets", float64(imm.TotalSamples))
	r.set("baselines.imm_over_dssa_rr_sets", float64(imm.TotalSamples)/float64(dssa.Samples))
	r.set("baselines.imm_over_dssa_time", imm.Elapsed.Seconds()/dssaTime.Seconds())
	return nil
}

// remoteRate measures generation through two ShardServers on unix sockets in
// the work directory, and the bytes that crossed the sockets per stream.
func remoteRate(e *env, g *ss.Graph, target int, rate func(ris.StoreOptions) float64) (perSec, wireMB float64, err error) {
	var wire atomic.Int64
	var addrs []string
	for i := 0; i < 2; i++ {
		path := filepath.Join(e.dir, fmt.Sprintf("shard%d.sock", i))
		ln, err := net.Listen("unix", path)
		if err != nil {
			return 0, 0, fmt.Errorf("shard server socket: %w", err)
		}
		srv := ris.NewShardServer(g, ris.ShardServerOptions{SamplingWorkers: max(1, e.nproc/2), SpillDir: e.spill})
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(countingListener{ln, &wire}) // returns once Close closes the listener
		}()
		defer func() {
			srv.Close()
			<-served
		}()
		addrs = append(addrs, "unix:"+path)
	}
	perSec = rate(ris.StoreOptions{RemoteWorkers: addrs})
	return perSec, float64(wire.Load()) / sweepReps / (1 << 20), nil
}

// countingListener counts the bytes of every connection it accepts.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
