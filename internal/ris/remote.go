package ris

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"time"
)

// This file is the wire protocol shared by RemoteShard (the coordinator-side
// shard client, remoteshard.go) and ShardServer (the worker side,
// shardserver.go). The protocol is deliberately tiny: length-prefixed binary
// frames over a stream transport (TCP or unix socket), little-endian, one
// request in flight per connection. Determinism does the heavy lifting —
// RR set i is a pure function of (seed, i) — so the coordinator and
// worker never negotiate state beyond "how many sets do you hold": any
// divergence is repaired by deterministic regeneration, not by shipping
// arenas.
//
// Frame layout: [u32 payload length][u8 kind][payload]. Request kinds are
// the op* constants, response kinds the resp* constants. Every request
// names a shard key, so one worker connection can multiplex any number of
// logical shards.
//
//	opOpen     key, nonce, spec     → respOK
//	opStats    key                  → respData{nsets, items, bytes}
//	opGenerate key, gfrom, gto, mir → respData{nsets, ends, nodes}… then respEnd
//	opPostings key, v, from, upto   → respData{ids}
//	opCoverage key, from, to, seeds → respData{count}
//
// Errors come back as respErr{kind, message}. errFatal means the request
// itself is wrong (bad spec, node out of range) and retrying is pointless;
// errResync means the worker's view of the shard diverged from the
// coordinator's (worker restarted, shard evicted, or the coordinator rolled
// back a partial Generate) and the client should re-open and replay.

// Request ops. Op 1, a retired liveness ping, stays unassigned so the
// other ops keep their wire numbers; a worker answers it as an unknown op.
const (
	opOpen     = 2
	opGenerate = 3
	opPostings = 4
	opCoverage = 5
	opStats    = 6
)

// Response kinds.
const (
	respOK   = 100
	respErr  = 101
	respData = 102
	respEnd  = 103
)

// respErr payload kinds.
const (
	errFatal  = 1 // request is wrong; do not retry
	errResync = 2 // shard state diverged; re-open and replay
)

// maxFrame bounds a single frame's payload; a worker answering a postings
// or generate request larger than this must be mis-framed.
const maxFrame = 1 << 30

// DefaultRemoteTimeout bounds one RPC exchange, including the sampling work
// a Generate triggers on the worker.
const DefaultRemoteTimeout = 2 * time.Minute

// DialFunc opens a transport to a shard worker. The default dialer
// understands "host:port" (TCP) and "unix:/path" addresses; tests inject
// net.Pipe-backed dialers to run workers in-process.
type DialFunc func(addr string) (net.Conn, error)

// defaultDial is the production dialer: TCP, or a unix socket for
// "unix:/path" addresses.
func defaultDial(addr string) (net.Conn, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return net.DialTimeout("unix", path, 5*time.Second)
	}
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// ErrShardUnreachable reports that a remote shard worker could not be
// reached (dial, deadline or transport failure) after the client's
// reconnect attempts. It is wrapped inside the *ShardError a remote-sharded
// store raises, so callers test errors.Is(err, ErrShardUnreachable) to
// distinguish degraded capacity from a genuinely bad request.
var ErrShardUnreachable = errors.New("ris: shard worker unreachable")

// ShardError is the typed failure a remote-sharded store surfaces when a
// worker RPC cannot be completed. The Store interface is error-free by
// design (see Store), so remote implementations raise *ShardError as a
// panic, which the caller that built the remote store recovers.
type ShardError struct {
	Addr string // worker address
	Op   string // logical operation: "generate", "postings", "coverage", …
	Err  error  // cause; wraps ErrShardUnreachable on transport failure
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("ris: shard worker %s: %s: %v", e.Addr, e.Op, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// shardPanic raises err as the panic value remote Store methods use to
// escape the error-free Store interface. Already-typed errors pass through.
func shardPanic(addr, op string, err error) {
	var se *ShardError
	if errors.As(err, &se) {
		panic(se)
	}
	panic(&ShardError{Addr: addr, Op: op, Err: err})
}

// fatalError and resyncError are the client-side decodings of respErr.
type fatalError struct{ msg string }

func (e *fatalError) Error() string { return "worker: " + e.msg }

type resyncError struct{ msg string }

func (e *resyncError) Error() string { return "worker requests resync: " + e.msg }

// writeFrame emits one [len][kind][payload] frame.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = kind
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, rejecting payloads over maxFrame.
func readFrame(r io.Reader) (kind byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// wbuf builds a little-endian payload.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)     { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)   { w.u64(uint64(v)) }
func (w *wbuf) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *wbuf) u32s(vs []uint32) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.u32(v)
	}
}
func (w *wbuf) i32s(vs []int32) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.u32(uint32(v))
	}
}

// errMalformed reports a payload shorter than its own structure claims.
var errMalformed = errors.New("malformed payload")

// rbuf decodes a little-endian payload; the first malformed read poisons
// every later one, so calls can be chained and err checked once.
type rbuf struct {
	b   []byte
	err error
}

func (r *rbuf) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.err = errMalformed
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *rbuf) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *rbuf) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *rbuf) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *rbuf) i64() int64     { return int64(r.u64()) }
func (r *rbuf) f64() float64   { return math.Float64frombits(r.u64()) }
func (r *rbuf) str() string    { return string(r.take(int(r.u32()))) }
func (r *rbuf) remaining() int { return len(r.b) }

func (r *rbuf) u32s() []uint32 {
	n := int(r.u32())
	if r.err != nil || len(r.b) < 4*n {
		r.err = errMalformed
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.u32()
	}
	return out
}

func (r *rbuf) i32s() []int32 {
	n := int(r.u32())
	if r.err != nil || len(r.b) < 4*n {
		r.err = errMalformed
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.u32())
	}
	return out
}

func (r *rbuf) f64s() []float64 {
	n := int(r.u32())
	if r.err != nil || len(r.b) < 8*n {
		r.err = errMalformed
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

// shardSpec is everything a worker needs to reconstruct a shard's sampling
// stream from nothing: the spec plus the deterministic (seed, gid) PRNG
// streams fully determine every RR set, which is what makes worker restart
// recovery a replay instead of a state transfer.
type shardSpec struct {
	n       uint32 // graph node count, validated against the worker's graph
	model   uint8
	kernel  uint8 // reserved: always 0; a worker rejects any other value
	seed    uint64
	workers uint32    // sampling parallelism on the worker; 0 = worker default
	weights []float64 // WRIS benefit weights; empty = uniform roots
}

func (sp *shardSpec) encode(w *wbuf) {
	w.u32(sp.n)
	w.u8(sp.model)
	w.u8(sp.kernel)
	w.u64(sp.seed)
	w.u32(sp.workers)
	w.u32(uint32(len(sp.weights)))
	for _, f := range sp.weights {
		w.f64(f)
	}
}

func (r *rbuf) spec() shardSpec {
	sp := shardSpec{
		n:       r.u32(),
		model:   r.u8(),
		kernel:  r.u8(),
		seed:    r.u64(),
		workers: r.u32(),
	}
	sp.weights = r.f64s()
	return sp
}

// encodeErr builds a respErr payload.
func encodeErr(kind byte, msg string) []byte {
	var w wbuf
	w.u8(kind)
	w.str(msg)
	return w.b
}

// decodeRespErr turns a respErr payload into the matching typed error.
func decodeRespErr(payload []byte) error {
	r := rbuf{b: payload}
	kind := r.u8()
	msg := r.str()
	if r.err != nil {
		return fmt.Errorf("undecodable worker error: %w", r.err)
	}
	if kind == errResync {
		return &resyncError{msg: msg}
	}
	return &fatalError{msg: msg}
}
