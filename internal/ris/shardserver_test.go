package ris

import (
	"bufio"
	"errors"
	"net"
	"testing"

	"stopandstare/internal/diffusion"
)

// shardConn is one raw coordinator connection to a ShardServer: requests are
// hand-encoded frames, so the tests control every byte the worker parses.
type shardConn struct {
	t  *testing.T
	br *bufio.Reader
	bw *bufio.Writer
}

func dialShardServer(t *testing.T, srv *ShardServer) *shardConn {
	t.Helper()
	client, server := net.Pipe()
	go srv.ServeConn(server)
	t.Cleanup(func() { client.Close() })
	return &shardConn{t: t, br: bufio.NewReader(client), bw: bufio.NewWriter(client)}
}

func (sc *shardConn) call(op byte, w wbuf) (byte, []byte) {
	sc.t.Helper()
	if err := writeFrame(sc.bw, op, w.b); err != nil {
		sc.t.Fatal(err)
	}
	if err := sc.bw.Flush(); err != nil {
		sc.t.Fatal(err)
	}
	kind, payload, err := readFrame(sc.br)
	if err != nil {
		sc.t.Fatal(err)
	}
	return kind, payload
}

func (sc *shardConn) open(key string, sp shardSpec) (byte, []byte) {
	var w wbuf
	w.str(key)
	w.u64(1)
	sp.encode(&w)
	return sc.call(opOpen, w)
}

// generate appends sets [0, n) to key's shard, without mirroring.
func (sc *shardConn) generate(key string, n int) {
	sc.t.Helper()
	var w wbuf
	w.str(key)
	w.u64(0)
	w.u64(uint64(n))
	w.u8(0)
	if kind, _ := sc.call(opGenerate, w); kind != respEnd {
		sc.t.Fatalf("generate %s: response kind %d", key, kind)
	}
}

// TestShardSpecRejectsBadBytes: a shard spec arrives from the network in an
// open frame, so an unknown model or a non-zero reserved kernel byte must be
// a fatal error, never a shard that silently samples another stream.
func TestShardSpecRejectsBadBytes(t *testing.T) {
	g := snapTestSampler(t).Graph()
	srv := NewShardServer(g, ShardServerOptions{SamplingWorkers: 1})
	defer srv.Close()
	sc := dialShardServer(t, srv)

	good := shardSpec{n: uint32(g.NumNodes()), model: uint8(diffusion.LT), seed: 42, workers: 1}
	if kind, _ := sc.open("good", good); kind != respOK {
		t.Fatalf("good spec: response kind %d", kind)
	}
	badModel, badKernel := good, good
	badModel.model = 2
	badKernel.kernel = 1
	for key, sp := range map[string]shardSpec{"model 2": badModel, "kernel 1": badKernel} {
		kind, payload := sc.open(key, sp)
		if kind != respErr {
			t.Fatalf("%s: response kind %d, want respErr", key, kind)
		}
		var fe *fatalError
		if err := decodeRespErr(payload); !errors.As(err, &fe) {
			t.Fatalf("%s: %v, want a fatal error", key, err)
		}
	}
	if n := srv.NumShards(); n != 1 {
		t.Fatalf("%d resident shards, want only the good one", n)
	}
}

// TestWorkerSnapshotSkipsBadSpec: the same bytes also arrive from a worker
// snapshot on disk. A shard record whose spec carries an unknown model or a
// non-zero kernel byte is skipped on recovery (the coordinator replays it
// under a valid spec), while the good shard stored after it is restored.
func TestWorkerSnapshotSkipsBadSpec(t *testing.T) {
	g := snapTestSampler(t).Graph()
	dir := t.TempDir()
	srv := NewShardServer(g, ShardServerOptions{SamplingWorkers: 1, StateDir: dir})
	sc := dialShardServer(t, srv)
	spec := shardSpec{n: uint32(g.NumNodes()), model: uint8(diffusion.IC), seed: 42, workers: 1}
	// Sorted key order puts both bad records before the good one, so the
	// recovery walk must step over their blocks to reach it.
	for _, key := range []string{"a-bad-kernel", "b-bad-model", "c-good"} {
		if kind, _ := sc.open(key, spec); kind != respOK {
			t.Fatalf("open %s: response kind %d", key, kind)
		}
		sc.generate(key, 50)
	}
	// Corrupt the specs as a damaged snapshot would carry them.
	srv.mu.Lock()
	srv.shards["a-bad-kernel"].spec.kernel = 1
	srv.shards["b-bad-model"].spec.model = 2
	srv.mu.Unlock()
	if _, err := srv.Persist(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	rec := NewShardServer(g, ShardServerOptions{SamplingWorkers: 1, StateDir: dir})
	defer rec.Close()
	if n := rec.RecoveredShards(); n != 1 {
		t.Fatalf("recovered %d shards, want 1", n)
	}
	for _, key := range []string{"a-bad-kernel", "b-bad-model"} {
		if _, err := rec.shard(key); err == nil {
			t.Fatalf("shard %s restored from a bad spec", key)
		}
	}
	sh, err := rec.shard("c-good")
	if err != nil {
		t.Fatal(err)
	}
	if sh.seg.nsets() != 50 {
		t.Fatalf("good shard restored %d sets, want 50", sh.seg.nsets())
	}
}
