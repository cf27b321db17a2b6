package ris

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// RemoteShard is the coordinator side of one cross-process shard: a client
// for a ShardServer worker that owns the shard's arena + CSR blocks. The
// coordinator keeps a mirror arena (seg) fed by Generate's streamed chunks —
// the solvers' Set/ForEachSet scans stay local and allocation-free — but
// builds no CSR index: postings and coverage walks are answered by the
// worker from its blocks, so the index (the larger half of a store) lives
// only on the worker and coverage walks never ship arenas.
//
// Failure handling is reconnect-with-backoff plus deterministic resync:
// because RR set i is a pure function of (seed, i), the client can
// always drive a restarted or evicted worker back to the mirror's state by
// replaying Generate ranges, and the worker's idempotent redelivery covers
// the inverse (worker ahead after a coordinator rollback). Only when the
// reconnect budget is spent does an operation fail, as a *ShardError
// wrapping ErrShardUnreachable. A remote store is never persisted
// (ErrSnapshotTopology): its key and nonce live only as long as the
// coordinator process.
type RemoteShard struct {
	addr    string
	dial    DialFunc
	timeout time.Duration
	key     string
	spec    shardSpec
	seg     *segment // mirror arena owned by the ShardedCollection

	mu    sync.Mutex // serializes the connection; one request in flight
	nonce uint64
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
}

// remoteAttempts bounds the connect-exchange cycles per operation; the
// zeroth attempt is immediate, later ones back off.
const remoteAttempts = 4

var remoteBackoff = [remoteAttempts]time.Duration{0, 50 * time.Millisecond, 250 * time.Millisecond, 1 * time.Second}

// shardInstance distinguishes store instances (and forced re-opens) across
// coordinator processes: time seeds uniqueness between processes, the
// counter within one.
var shardInstanceCounter atomic.Uint64

func nextShardInstance() uint64 {
	return uint64(time.Now().UnixNano())<<16 | (shardInstanceCounter.Add(1) & 0xffff)
}

// Addr returns the worker address this shard proxies.
func (rs *RemoteShard) Addr() string { return rs.addr }

// close tears down the connection (tests; the store has no Close).
func (rs *RemoteShard) close() {
	rs.mu.Lock()
	rs.dropConnLocked()
	rs.mu.Unlock()
}

func (rs *RemoteShard) dropConnLocked() {
	if rs.conn != nil {
		rs.conn.Close()
		rs.conn, rs.br, rs.bw = nil, nil, nil
	}
}

// segSnap captures the mirror's observable extent so a partially failed
// multi-shard Generate can be rolled back exactly. Mirrors hold no CSR
// blocks and spill enforcement only runs after a fully successful Generate,
// so between snapshot and restore the segment can only have grown at its
// arena tail — bufLen is the TAIL length (frozen extents are immutable and
// need no rollback) and the three scalars cover everything.
type segSnap struct {
	nsets  int
	bufLen int
	width  int64
}

func (rs *RemoteShard) snapshot() segSnap {
	return segSnap{nsets: rs.seg.nsets(), bufLen: len(rs.seg.buf), width: rs.seg.width}
}

func (rs *RemoteShard) restore(s segSnap) {
	rs.seg.buf = rs.seg.buf[:s.bufLen]
	rs.seg.offsets = rs.seg.offsets[:s.nsets+1]
	rs.seg.gids = rs.seg.gids[:s.nsets]
	rs.seg.width = s.width
}

// generate asks the worker to append RR sets [gfrom, gto) and mirrors the
// streamed chunks into the local arena. On success the mirror grew by
// exactly gto−gfrom sets; on error (including ctx cancellation, returned
// unwrapped) it is unchanged.
func (rs *RemoteShard) generate(ctx context.Context, gfrom, gto int) error {
	var w wbuf
	w.str(rs.key)
	w.u64(uint64(gfrom))
	w.u64(uint64(gto))
	w.u8(1) // mirror the chunks back
	frames, err := rs.doRPC(ctx, "generate", opGenerate, w.b, true)
	if err != nil {
		return err
	}
	chunks := make([]chunkResult, 0, len(frames))
	total := 0
	for _, f := range frames {
		c, err := decodeChunk(f)
		if err != nil {
			return &ShardError{Addr: rs.addr, Op: "generate", Err: err}
		}
		total += len(c.offsets) - 1
		chunks = append(chunks, c)
	}
	if total != gto-gfrom {
		return &ShardError{Addr: rs.addr, Op: "generate",
			Err: fmt.Errorf("worker streamed %d sets for range [%d,%d)", total, gfrom, gto)}
	}
	rs.seg.appendResults(chunks)
	for g := gfrom; g < gto; g++ {
		rs.seg.gids = append(rs.seg.gids, int32(g))
	}
	return nil
}

// postings fetches the global ids in [from, upto) of RR sets containing v,
// one ascending run per worker (its blocks are disjoint ascending ranges).
func (rs *RemoteShard) postings(v uint32, from, upto int) ([]int32, error) {
	var w wbuf
	w.str(rs.key)
	w.u32(v)
	w.u64(uint64(from))
	w.u64(uint64(upto))
	frames, err := rs.doRPC(context.Background(), "postings", opPostings, w.b, false)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: frames[0]}
	ids := r.i32s()
	if r.err != nil {
		return nil, &ShardError{Addr: rs.addr, Op: "postings", Err: r.err}
	}
	return ids, nil
}

// coverageSeeds counts the shard's RR sets in [from, to) containing at
// least one seed, walked worker-side from its CSR blocks. Shards own
// disjoint global id ranges, so the coordinator sums shard counts.
func (rs *RemoteShard) coverageSeeds(seeds []uint32, from, to int) (int64, error) {
	var w wbuf
	w.str(rs.key)
	w.u64(uint64(from))
	w.u64(uint64(to))
	w.u32s(seeds)
	frames, err := rs.doRPC(context.Background(), "coverage", opCoverage, w.b, false)
	if err != nil {
		return 0, err
	}
	r := rbuf{b: frames[0]}
	cov := r.i64()
	if r.err != nil {
		return 0, &ShardError{Addr: rs.addr, Op: "coverage", Err: r.err}
	}
	return cov, nil
}

// doRPC runs one request/response exchange with reconnect, backoff and
// resync. stream selects the multi-frame response shape (respData… respEnd)
// over the single-frame one. Fatal worker errors return immediately; resync
// requests re-open the shard (fresh nonce, deterministic replay) and retry;
// transport failures drop the connection, back off and retry. A non-nil
// error is always a *ShardError — except context cancellation, checked
// before every attempt and during backoff, which returns ctx's error
// unwrapped so callers can distinguish "caller gave up" from "shard down".
func (rs *RemoteShard) doRPC(ctx context.Context, op string, kind byte, payload []byte, stream bool) ([][]byte, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < remoteAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if d := remoteBackoff[attempt]; d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		if rs.conn == nil {
			if err := rs.connectLocked(); err != nil {
				lastErr = err
				continue
			}
		}
		frames, err := rs.exchangeLocked(kind, payload, stream)
		if err == nil {
			if !stream && len(frames) == 0 {
				return nil, &ShardError{Addr: rs.addr, Op: op, Err: errors.New("worker sent no data frame")}
			}
			return frames, nil
		}
		lastErr = err
		var fe *fatalError
		if errors.As(err, &fe) {
			return nil, &ShardError{Addr: rs.addr, Op: op, Err: err}
		}
		var re *resyncError
		if errors.As(err, &re) {
			if err := rs.syncLocked(true); err != nil {
				lastErr = err
				rs.dropConnLocked()
			}
			continue
		}
		rs.dropConnLocked()
	}
	return nil, &ShardError{Addr: rs.addr, Op: op,
		Err: fmt.Errorf("%w after %d attempts: %v", ErrShardUnreachable, remoteAttempts, lastErr)}
}

// connectLocked dials the worker and reconciles shard state.
func (rs *RemoteShard) connectLocked() error {
	conn, err := rs.dial(rs.addr)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	rs.conn = conn
	rs.br = bufio.NewReader(conn)
	rs.bw = bufio.NewWriter(conn)
	if err := rs.syncLocked(false); err != nil {
		rs.dropConnLocked()
		return err
	}
	return nil
}

// syncLocked opens the shard on the worker and drives its state to match
// the mirror. fresh forces a wipe (new nonce): the worker discards whatever
// it holds and the full mirror is replayed — the recovery of last resort,
// also used when the worker got ahead of a rolled-back mirror.
func (rs *RemoteShard) syncLocked(fresh bool) error {
	if fresh {
		rs.nonce = nextShardInstance()
	}
	var w wbuf
	w.str(rs.key)
	w.u64(rs.nonce)
	rs.spec.encode(&w)
	if _, err := rs.exchangeLocked(opOpen, w.b, false); err != nil {
		return err
	}
	var sw wbuf
	sw.str(rs.key)
	frames, err := rs.exchangeLocked(opStats, sw.b, false)
	if err != nil {
		return err
	}
	if len(frames) == 0 {
		return errors.New("worker sent no stats")
	}
	r := rbuf{b: frames[0]}
	workerN := int(r.u64())
	if r.err != nil {
		return r.err
	}
	mirrorN := rs.seg.nsets()
	if workerN > mirrorN {
		if fresh {
			return fmt.Errorf("worker holds %d sets after wipe (mirror has %d)", workerN, mirrorN)
		}
		return rs.syncLocked(true)
	}
	// Worker behind (restart, eviction, or a fresh wipe): replay the
	// mirror's missing gid runs. The worker regenerates them from the
	// deterministic streams; no chunks come back (mirror flag off).
	gids := rs.seg.gids[workerN:]
	for i := 0; i < len(gids); {
		j := i + 1
		for j < len(gids) && gids[j] == gids[j-1]+1 {
			j++
		}
		var gw wbuf
		gw.str(rs.key)
		gw.u64(uint64(gids[i]))
		gw.u64(uint64(gids[j-1]) + 1)
		gw.u8(0)
		if _, err := rs.exchangeLocked(opGenerate, gw.b, true); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// exchangeLocked performs one framed request/response on the live
// connection, with the per-call deadline re-armed before the write and
// before every response frame.
func (rs *RemoteShard) exchangeLocked(kind byte, payload []byte, stream bool) ([][]byte, error) {
	rs.conn.SetDeadline(time.Now().Add(rs.timeout))
	if err := writeFrame(rs.bw, kind, payload); err != nil {
		return nil, err
	}
	if err := rs.bw.Flush(); err != nil {
		return nil, err
	}
	var frames [][]byte
	for {
		rs.conn.SetDeadline(time.Now().Add(rs.timeout))
		k, p, err := readFrame(rs.br)
		if err != nil {
			return nil, err
		}
		switch k {
		case respOK:
			return frames, nil
		case respEnd:
			return frames, nil
		case respErr:
			return nil, decodeRespErr(p)
		case respData:
			frames = append(frames, p)
			if !stream {
				return frames, nil
			}
		default:
			return nil, fmt.Errorf("unexpected response kind %d", k)
		}
	}
}
