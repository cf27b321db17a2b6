package ris

import (
	"bufio"
	"errors"
	"net"
	"runtime"
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

// TestShardCoverageClampsWindow: a coverage frame's window arrives from the
// network and sizes the worker's bitset, so the worker clamps its end to
// the shard's last id. A window ending far past the stream counts what the
// stream holds without allocating a bitset for the rest (2^28 ids would be
// 32 MB), and an empty shard counts nothing.
func TestShardCoverageClampsWindow(t *testing.T) {
	s := snapTestSampler(t)
	srv := NewShardServer(s.Graph(), ShardServerOptions{SamplingWorkers: 1})
	defer srv.Close()
	dial := func(string) (net.Conn, error) {
		client, server := net.Pipe()
		go srv.ServeConn(server)
		return client, nil
	}
	st := NewStore(s, 42, StoreOptions{RemoteWorkers: []string{"w"}, RemoteDial: dial})
	rs := st.(*ShardedCollection).remotes[0]
	seeds := []uint32{0, 3, 17, 42}
	const far = 1 << 28
	// coverage asks the worker for seeds' coverage of [from, far) and
	// checks the answer and what the call allocated.
	coverage := func(from int, want int64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cov, err := rs.coverageSeeds(seeds, from, far)
		runtime.ReadMemStats(&after)
		if err != nil || cov != want {
			t.Fatalf("window [%d, 2^28): coverage %d, %v, want %d", from, cov, err, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Fatalf("window [%d, 2^28): allocated %d bytes", from, grew)
		}
	}
	coverage(0, 0) // empty shard
	st.GenerateTo(700)
	want := st.CoverageRangeSeeds(seeds, 100, 700)
	if want == 0 {
		t.Fatal("seeds cover no set")
	}
	coverage(100, want)
}
