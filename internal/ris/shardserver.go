package ris

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/graph"
)

// ShardServer is the worker side of cross-process sharding: it opens the
// graph once (read-only — a mapped .sasg costs one set of pages shared by
// every worker on the host) and keeps, resident in memory, the arena + CSR
// index of any number of logical shards, keyed by the coordinator-chosen
// shard key. Only the frozen benchmarks/imperf topology sweep and tests
// serve it; tests drive ServeConn directly over net.Pipe.
//
// The server is deliberately stateless-recoverable: a shard's spec plus the
// deterministic (seed, gid) PRNG streams fully determine its contents, so a
// restarted or evicted shard is rebuilt by the coordinator replaying
// Generate calls — no persistent state, no arena shipping.
type ShardServerOptions struct {
	// SamplingWorkers bounds generation parallelism for shards whose spec
	// asks for the worker default (0); ≤0 selects GOMAXPROCS.
	SamplingWorkers int
	// SpillDir is ignored: shard servers keep every shard resident. It stays
	// only because the frozen benchmarks/imperf topology sweep sets it, and
	// goes with the shard server.
	SpillDir string
}

// maxWorkerShards caps a ShardServer's resident shard states; beyond it the
// least-recently used shard is dropped (coordinators recover via
// deterministic replay).
const maxWorkerShards = 64

// ShardServer serves one graph's RR-set shards to remote coordinators.
type ShardServer struct {
	g       *graph.Graph
	workers int

	mu     sync.Mutex
	shards map[string]*workerShard
	clock  uint64 // LRU clock, bumped on every shard touch
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
}

// workerShard is one resident shard: a sampler bound to the shard's spec
// and a segment holding the shard's arena + CSR blocks under global ids.
type workerShard struct {
	mu      sync.Mutex
	nonce   uint64
	spec    shardSpec
	sampler *Sampler
	workers int
	seg     *segment
	words   []uint64 // coverage window bitset, serialized by mu
	lastUse uint64
}

// NewShardServer creates a shard server over g.
func NewShardServer(g *graph.Graph, opt ShardServerOptions) *ShardServer {
	return &ShardServer{
		g:       g,
		workers: opt.SamplingWorkers,
		shards:  make(map[string]*workerShard),
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
}

// NumShards reports the resident shard-state count (tests and stats).
func (s *ShardServer) NumShards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards)
}

// Serve accepts connections on ln until the listener fails or the server is
// closed, handling each connection on its own goroutine.
func (s *ShardServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("ris: shard server closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// ServeConn handles one coordinator connection until it closes or errors.
// Exported so tests (and single-process setups) can serve net.Pipe ends
// without a listener.
func (s *ShardServer) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		kind, payload, err := readFrame(br)
		if err != nil {
			return // peer gone or mis-framed; the client reconnects
		}
		if err := s.dispatch(bw, kind, payload); err != nil {
			var fe *fatalError
			var re *resyncError
			switch {
			case errors.As(err, &fe):
				err = writeFrame(bw, respErr, encodeErr(errFatal, fe.msg))
			case errors.As(err, &re):
				err = writeFrame(bw, respErr, encodeErr(errResync, re.msg))
			}
			if err != nil {
				return
			}
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// Close stops the server: listeners close (Serve returns), every live
// connection is severed, and resident shard states are dropped. Clients see
// transport errors and surface ErrShardUnreachable once their reconnect
// budget is spent.
func (s *ShardServer) Close() error {
	s.mu.Lock()
	s.closed = true
	lns := make([]net.Listener, 0, len(s.lns))
	for ln := range s.lns {
		lns = append(lns, ln)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.shards = make(map[string]*workerShard)
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// dispatch decodes and executes one request, writing success responses to
// bw. A returned fatalError/resyncError is encoded by the caller; any other
// error is a transport failure and drops the connection.
func (s *ShardServer) dispatch(bw *bufio.Writer, kind byte, payload []byte) error {
	switch kind {
	case opOpen:
		return s.handleOpen(bw, payload)
	case opStats:
		return s.handleStats(bw, payload)
	case opGenerate:
		return s.handleGenerate(bw, payload)
	case opPostings:
		return s.handlePostings(bw, payload)
	case opCoverage:
		return s.handleCoverage(bw, payload)
	default:
		return &fatalError{msg: fmt.Sprintf("unknown op %d", kind)}
	}
}

// shard returns the resident state for key, as a resyncError when absent
// (worker restarted or the state was evicted; the client re-opens).
func (s *ShardServer) shard(key string) (*workerShard, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.shards[key]
	if !ok {
		return nil, &resyncError{msg: fmt.Sprintf("unknown shard %q", key)}
	}
	s.clock++
	sh.lastUse = s.clock
	return sh, nil
}

func (s *ShardServer) handleOpen(bw *bufio.Writer, payload []byte) error {
	r := rbuf{b: payload}
	key := r.str()
	nonce := r.u64()
	spec := r.spec()
	if r.err != nil {
		return &fatalError{msg: "malformed open"}
	}
	if int(spec.n) != s.g.NumNodes() {
		return &fatalError{msg: fmt.Sprintf("graph mismatch: coordinator has %d nodes, worker has %d", spec.n, s.g.NumNodes())}
	}
	s.mu.Lock()
	sh, ok := s.shards[key]
	s.mu.Unlock()
	if ok && sh.nonce == nonce {
		// Same store instance re-opening (reconnect): keep the state, the
		// client reconciles via opStats.
		return writeFrame(bw, respOK, nil)
	}
	// New instance (or an explicit wipe request): build fresh state.
	sampler, err := s.samplerForSpec(spec)
	if err != nil {
		return &fatalError{msg: err.Error()}
	}
	workers := int(spec.workers)
	if workers <= 0 {
		workers = s.workers
	}
	seg := newSegment(s.g.NumNodes())
	seg.gids = []int32{}
	s.mu.Lock()
	s.clock++
	s.shards[key] = &workerShard{
		nonce: nonce, spec: spec, sampler: sampler, workers: workers,
		seg: seg, lastUse: s.clock,
	}
	s.evictLocked(key)
	s.mu.Unlock()
	return writeFrame(bw, respOK, nil)
}

// samplerForSpec turns a shard spec into a sampler. A spec arrives from
// the network, so its bytes are validated here: an unknown model or a
// non-zero reserved kernel byte is an error, never a silently different RR
// stream.
func (s *ShardServer) samplerForSpec(spec shardSpec) (*Sampler, error) {
	model := diffusion.Model(spec.model)
	if model != diffusion.IC && model != diffusion.LT {
		return nil, fmt.Errorf("ris: unknown model %d in shard spec", spec.model)
	}
	if spec.kernel != 0 {
		return nil, fmt.Errorf("ris: unsupported kernel %d in shard spec", spec.kernel)
	}
	if len(spec.weights) > 0 {
		return NewWeightedSampler(s.g, model, spec.weights)
	}
	return NewSampler(s.g, model)
}

// evictLocked drops least-recently-used shards beyond the cap, never the
// one just touched. Evicted coordinators recover by deterministic replay.
func (s *ShardServer) evictLocked(keep string) {
	for len(s.shards) > maxWorkerShards {
		var victim string
		var oldest uint64 = ^uint64(0)
		for k, sh := range s.shards {
			if k != keep && sh.lastUse < oldest {
				victim, oldest = k, sh.lastUse
			}
		}
		if victim == "" {
			return
		}
		delete(s.shards, victim)
	}
}

func (s *ShardServer) handleStats(bw *bufio.Writer, payload []byte) error {
	r := rbuf{b: payload}
	key := r.str()
	if r.err != nil {
		return &fatalError{msg: "malformed stats"}
	}
	sh, err := s.shard(key)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	var w wbuf
	w.u64(uint64(sh.seg.nsets()))
	w.i64(sh.seg.items())
	w.i64(sh.seg.residentBytes())
	sh.mu.Unlock()
	return writeFrame(bw, respData, w.b)
}

// handleGenerate appends the RR sets with global ids [gfrom, gto) to the
// shard, streaming the sampled chunks back (one respData frame per chunk,
// then respEnd) when the mirror flag is set. The op is idempotent over
// already-held ranges: a range fully contained in the shard's gids is
// re-streamed from the arena without resampling, which is what makes the
// client's retry-after-reconnect and replay-after-rollback safe.
func (s *ShardServer) handleGenerate(bw *bufio.Writer, payload []byte) error {
	r := rbuf{b: payload}
	key := r.str()
	gfrom := int(r.u64())
	gto := int(r.u64())
	mirror := r.u8() != 0
	if r.err != nil || gfrom < 0 || gto <= gfrom {
		return &fatalError{msg: "malformed generate"}
	}
	sh, err := s.shard(key)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()

	gids := sh.seg.gids
	switch {
	case len(gids) == 0 || int(gids[len(gids)-1]) < gfrom:
		// Fresh range beyond everything held: sample and append.
		results, err := sampleChunksCtx(context.Background(), sh.sampler, sh.spec.seed, gfrom, gto, sh.workers)
		if err != nil { // the worker's graph failed the plan's content checks
			return &fatalError{msg: err.Error()}
		}
		lfrom := sh.seg.nsets()
		sh.seg.appendResults(results, gfrom)
		sh.seg.appendIndexBlock(lfrom, sh.seg.nsets(), sh.workers)
		if mirror {
			for ci := range results {
				if err := writeFrame(bw, respData, encodeChunk(&results[ci])); err != nil {
					return err
				}
			}
		}
		return writeFrame(bw, respEnd, nil)
	case containedRun(gids, gfrom, gto):
		// Redelivery of a range this shard already holds: re-stream from
		// the arena in chunk-sized slices.
		if mirror {
			lo := localIndexOf(gids, gfrom)
			count := gto - gfrom
			for off := 0; off < count; off += chunkSize {
				end := off + chunkSize
				if end > count {
					end = count
				}
				if err := writeFrame(bw, respData, encodeArenaChunk(sh.seg, lo+off, lo+end)); err != nil {
					return err
				}
			}
		}
		return writeFrame(bw, respEnd, nil)
	default:
		return &resyncError{msg: fmt.Sprintf("generate [%d,%d) overlaps shard state non-contiguously", gfrom, gto)}
	}
}

// containedRun reports whether the ascending gids slice contains every id
// in [gfrom, gto): first and last present with exactly the right span.
func containedRun(gids []int32, gfrom, gto int) bool {
	idx := localIndexOf(gids, gfrom)
	count := gto - gfrom
	return idx+count <= len(gids) &&
		idx < len(gids) && int(gids[idx]) == gfrom &&
		int(gids[idx+count-1]) == gto-1
}

// localIndexOf returns the first index whose gid is ≥ g.
func localIndexOf(gids []int32, g int) int {
	lo, hi := 0, len(gids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(gids[mid]) < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// encodeChunk serializes one sampled chunkResult.
func encodeChunk(res *chunkResult) []byte {
	var w wbuf
	w.u32(uint32(len(res.offsets) - 1))
	w.i32s(res.offsets[1:])
	w.u32s(res.buf)
	return w.b
}

// encodeArenaChunk re-serializes local sets [lfrom, lto) straight from the
// arena in the same chunk layout encodeChunk produces, gathering the sets
// through setAt.
func encodeArenaChunk(seg *segment, lfrom, lto int) []byte {
	base := seg.offsets[lfrom]
	buf := make([]uint32, 0, seg.offsets[lto]-base)
	for i := lfrom; i < lto; i++ {
		buf = append(buf, seg.setAt(i)...)
	}
	var w wbuf
	w.u32(uint32(lto - lfrom)) // nsets
	w.u32(uint32(lto - lfrom)) // the ends' count, as i32s writes it
	for i := lfrom + 1; i <= lto; i++ {
		w.u32(uint32(seg.offsets[i] - base))
	}
	w.u32s(buf)
	return w.b
}

// decodeChunk rebuilds a chunkResult from its frame.
func decodeChunk(payload []byte) (chunkResult, error) {
	r := rbuf{b: payload}
	nsets := int(r.u32())
	ends := r.i32s()
	buf := r.u32s()
	if r.err != nil || len(ends) != nsets ||
		(nsets > 0 && int(ends[nsets-1]) != len(buf)) {
		return chunkResult{}, errMalformed
	}
	offsets := make([]int32, 1, nsets+1)
	offsets = append(offsets, ends...)
	return chunkResult{buf: buf, offsets: offsets}, nil
}

func (s *ShardServer) handlePostings(bw *bufio.Writer, payload []byte) error {
	r := rbuf{b: payload}
	key := r.str()
	v := r.u32()
	from := int(r.u64())
	upto := int(r.u64())
	if r.err != nil {
		return &fatalError{msg: "malformed postings"}
	}
	if int(v) >= s.g.NumNodes() {
		return &fatalError{msg: fmt.Sprintf("node %d out of range", v)}
	}
	sh, err := s.shard(key)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	it := Postings{seg: sh.seg, v: v, from: from, upto: upto}
	var w wbuf
	var ids []int32
	for {
		run, ok := it.Next()
		if !ok {
			break
		}
		ids = append(ids, run...)
	}
	w.i32s(ids)
	sh.mu.Unlock()
	return writeFrame(bw, respData, w.b)
}

func (s *ShardServer) handleCoverage(bw *bufio.Writer, payload []byte) error {
	r := rbuf{b: payload}
	key := r.str()
	from := int(r.u64())
	to := int(r.u64())
	seeds := r.u32s()
	if r.err != nil {
		return &fatalError{msg: "malformed coverage"}
	}
	for _, v := range seeds {
		if int(v) >= s.g.NumNodes() {
			return &fatalError{msg: fmt.Sprintf("seed %d out of range", v)}
		}
	}
	sh, err := s.shard(key)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	// The window's bitset is sized by it, so clamp the frame's end to the
	// shard's last id: no stored id lies past it.
	if nb := len(sh.seg.blocks); nb == 0 {
		to = 0
	} else {
		to = min(to, sh.seg.blocks[nb-1].to)
	}
	_, cov := windowStop(&sh.words, seeds, max(from, 0), to, math.MaxInt64,
		func(v uint32, from, upto int) Postings {
			return Postings{seg: sh.seg, v: v, from: from, upto: upto}
		})
	sh.mu.Unlock()
	var w wbuf
	w.i64(cov)
	return writeFrame(bw, respData, w.b)
}
