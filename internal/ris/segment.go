package ris

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"stopandstare/internal/mapfile"
)

// This file is the storage engine the RR-set store is built from:
//
//   - segment: a flat arena of RR sets plus a size-tiered CSR inverted
//     index over them. ShardedCollection wraps one segment per shard; with
//     several shards (and in worker processes) gids maps segment-local set
//     indices to global stream ids, a lone in-process shard uses identity.
//   - sampleChunks: deterministic parallel generation of a global id range
//     (RR set i is always produced by the PRNG stream (seed, i), so the
//     output is bit-identical for any worker count and any sharding).
//   - Postings: the zero-allocation iterator over a node's postings runs
//     across a store's segments.

// MaxSets is the largest stream a store can hold: RR-set ids are int32 in
// the CSR index blocks and the gid tables. Growth schedules must cap below
// it (core.growthCap does).
const MaxSets = math.MaxInt32

// chunkSize is the number of RR sets per parallel work unit.
const chunkSize = 512

// indexItemsPerWorker is the minimum number of postings per index-build
// worker; smaller batches are built serially (the per-worker count arrays
// cost O(n) each, which only pays off over enough items).
const indexItemsPerWorker = 1 << 13

// csrBlock is an inverted-index block over the contiguous run of
// segment-local sets [lfrom, lto): the sets containing node v within the
// run are ids[starts[v]:starts[v+1]], ascending. The stored ids are GLOBAL
// stream ids ([from, to) bounds them), so postings runs can be handed to
// algorithms as-is regardless of which shard they came from; in a one-shard
// store local and global indices coincide. One block is appended per
// growth call; small trailing blocks are merged size-tiered (see
// segment.appendIndexBlock), so any call pattern leaves O(log |R|) blocks.
type csrBlock struct {
	from, to   int     // global id bounds: every stored id is in [from, to)
	lfrom, lto int     // segment-local set range the block indexes
	starts     []int32 // len = NumNodes+1; block-local offsets into ids
	ids        []int32 // global RR-set ids, ascending within each node's run

	mapped  bool   // starts/ids alias a block-file mapping (spill or snapshot)
	lastUse uint64 // spill-LRU recency; read/written atomically
}

// segment is one arena + CSR index over a sub-stream of RR sets. It is not
// a Store by itself: ShardedCollection layers id mapping, generation and
// coverage queries on top.
//
// The arena is a sequence of immutable extents that tile the segment's sets.
// appendResults is the only way sets enter it, one exact-size extent per
// call, so no growth copies the sets stored before it.
type segment struct {
	n       int     // node count of the underlying graph
	offsets []int64 // len = nsets()+1; absolute item offsets across extents
	gids    []int32 // global id per local set; nil ⇒ identity (lone in-process shard)
	blocks  []csrBlock
	cursor  []int32 // scratch for CSR construction, len = n

	exts  []arenaExtent // arena extents, ascending; they tile [0, nsets())
	spill *spillState   // shared spill tier; nil ⇒ spilling disabled
	snap  *blockFile    // recovered-from snapshot; keeps its mappings alive
}

// arenaExtent is an immutable slice of the arena: local sets
// [setFrom, setTo) whose items span absolute offsets [base, base+len(data)).
// data is either the heap slice one appendResults call filled (resident) or
// an alias of a block-file mapping — the spill file's, or a recovered
// snapshot's (mapped).
type arenaExtent struct {
	setFrom, setTo int
	base           int64
	data           []uint32
	mapped         bool
	lastUse        uint64 // spill-LRU recency; read/written atomically
}

func newSegment(n int) *segment {
	return &segment{n: n, offsets: []int64{0}}
}

// nsets returns the number of sets stored in the segment.
func (sg *segment) nsets() int { return len(sg.offsets) - 1 }

// setAt returns local set i as a sub-slice of the extent holding it (which
// may alias the spill file — reading it is the transparent fault-in path).
// The newest extent is tried first: under doubling it holds about half the
// sets.
func (sg *segment) setAt(i int) []uint32 {
	e := &sg.exts[len(sg.exts)-1]
	if i < e.setFrom {
		e = &sg.exts[sg.extentIndex(i)]
	}
	sg.touch(e)
	return e.data[sg.offsets[i]-e.base : sg.offsets[i+1]-e.base]
}

// extentIndex returns the index of the extent holding local set i.
func (sg *segment) extentIndex(i int) int {
	lo, hi := 0, len(sg.exts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sg.exts[mid].setTo <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// stamp returns a fresh LRU recency for a unit the segment just built, or 0
// without a spill tier.
func (sg *segment) stamp() uint64 {
	if sg.spill == nil {
		return 0
	}
	return sg.spill.tick()
}

// touch stamps a resident extent's LRU recency in a spill-armed segment
// (spilled extents have nothing left to evict). Safe under concurrent
// reads: extents are immutable and the stamp is atomic.
func (sg *segment) touch(e *arenaExtent) {
	if !e.mapped && sg.spill != nil {
		sg.spill.touch(&e.lastUse)
	}
}

// eachPiece calls fn once per extent holding local sets [from, to), in
// ascending order, with the part of [from, to) it holds. Set i of a piece
// [lo, hi) is data[offsets[i]-base : offsets[i+1]-base]. With touch it
// stamps each extent it reads once; index builds read untouched.
func (sg *segment) eachPiece(from, to int, touch bool, fn func(lo, hi int, base int64, data []uint32)) {
	for ei := sg.extentIndex(from); from < to; ei++ {
		e := &sg.exts[ei]
		if touch {
			sg.touch(e)
		}
		hi := min(to, e.setTo)
		fn(from, hi, e.base, e.data)
		from = hi
	}
}

// mappedSets reports whether any of local sets [from, to) lies in a mapped
// extent.
func (sg *segment) mappedSets(from, to int) bool {
	for ei := sg.extentIndex(from); ei < len(sg.exts) && sg.exts[ei].setFrom < to; ei++ {
		if sg.exts[ei].mapped {
			return true
		}
	}
	return false
}

// items returns the total arena entries across the extents.
func (sg *segment) items() int64 { return sg.offsets[sg.nsets()] }

// gid maps a local set index to its global stream id.
func (sg *segment) gid(i int) int {
	if sg.gids == nil {
		return i
	}
	return int(sg.gids[i])
}

// residentBytes reports the heap memory the segment holds: the
// offset/gid/cursor tables, resident extents and index blocks, plus the
// per-block and per-extent metadata records themselves (capacities, since
// grown backing arrays are what the process actually retains). Units that
// alias a block-file mapping are excluded — spilledBytes counts those.
func (sg *segment) residentBytes() int64 {
	b := int64(cap(sg.offsets))*8 + int64(cap(sg.gids))*4 + int64(cap(sg.cursor))*4 +
		int64(cap(sg.blocks))*int64(unsafe.Sizeof(csrBlock{})) +
		int64(cap(sg.exts))*int64(unsafe.Sizeof(arenaExtent{}))
	for i := range sg.blocks {
		blk := &sg.blocks[i]
		if !blk.mapped || mapfile.Resident {
			b += int64(cap(blk.starts))*4 + int64(cap(blk.ids))*4
		}
	}
	for i := range sg.exts {
		e := &sg.exts[i]
		if !e.mapped || mapfile.Resident {
			b += int64(cap(e.data)) * 4
		}
	}
	return b
}

// spilledBytes reports the RR data aliasing a block-file mapping
// (zero on platforms whose fallback keeps "mapped" payloads on the heap).
func (sg *segment) spilledBytes() int64 {
	if mapfile.Resident {
		return 0
	}
	var b int64
	for i := range sg.blocks {
		blk := &sg.blocks[i]
		if blk.mapped {
			b += int64(len(blk.starts))*4 + int64(len(blk.ids))*4
		}
	}
	for i := range sg.exts {
		e := &sg.exts[i]
		if e.mapped {
			b += int64(len(e.data)) * 4
		}
	}
	return b
}

type chunkResult struct {
	buf     []uint32
	offsets []int32 // len = sets in chunk + 1
}

// sampleChunksCtx generates the RR sets with global ids [gfrom, gto) in
// parallel chunks. RR set i is always produced by the PRNG stream
// (seed, i), so the output is bit-identical for any worker count — and for
// any partition of the id space across segments, which is what makes the
// sample stream independent of the shard count.
//
// The sampler's plan is resolved before any worker starts, so a graph that
// fails the compile's content checks returns that error and no worker runs.
// Workers check ctx between chunk claims and stop claiming once it fires.
// On cancellation all sampled chunks are discarded and ctx.Err() is
// returned — the caller appends nothing, so an abandoned top-up can never
// leave a half-grown store. Chunks are the granularity: a fired ctx waits
// at most one chunk's sampling time per worker.
func sampleChunksCtx(ctx context.Context, s *Sampler, seed uint64, gfrom, gto, workers int) ([]chunkResult, error) {
	return sampleChunksInto(ctx, s, seed, gfrom, gto, workers, nil)
}

// sampleChunksInto is sampleChunksCtx writing into results (grown as
// needed), whose chunks' buffers it reuses: ScanStop samples every slice of
// a window into one slice's results.
func sampleChunksInto(ctx context.Context, s *Sampler, seed uint64, gfrom, gto, workers int, results []chunkResult) ([]chunkResult, error) {
	p, err := s.Plan()
	if err != nil {
		return nil, err
	}
	count := gto - gfrom
	nChunks := (count + chunkSize - 1) / chunkSize
	results = slices.Grow(results[:0], nChunks)[:nChunks]
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nChunks {
		workers = nChunks
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := s.NewState()
			for {
				if ctx.Err() != nil {
					return
				}
				ci := int(atomic.AddInt64(&next, 1)) - 1
				if ci >= nChunks {
					return
				}
				lo := gfrom + ci*chunkSize
				hi := min(lo+chunkSize, gto)
				s.sampleChunk(p, st, seed, lo, hi, &results[ci])
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// appendResults appends chunk results, the sets with global ids from on in
// chunk order, as one new exact-size extent, stamped most recently used
// since it holds the newest sets; a segment with a gid table records their
// ids. It is the only way sets enter the arena.
func (sg *segment) appendResults(results []chunkResult, from int) {
	var totalItems, totalSets int
	for ci := range results {
		totalItems += len(results[ci].buf)
		totalSets += len(results[ci].offsets) - 1
	}
	if totalSets == 0 {
		return
	}
	e := arenaExtent{
		setFrom: sg.nsets(), setTo: sg.nsets() + totalSets,
		base: sg.items(), data: make([]uint32, 0, totalItems), lastUse: sg.stamp(),
	}
	sg.offsets = slices.Grow(sg.offsets, totalSets)
	for ci := range results {
		res := &results[ci]
		off := e.base + int64(len(e.data))
		e.data = append(e.data, res.buf...)
		for j := 1; j < len(res.offsets); j++ {
			sg.offsets = append(sg.offsets, off+int64(res.offsets[j]))
		}
	}
	sg.exts = append(sg.exts, e)
	if sg.gids != nil {
		sg.gids = slices.Grow(sg.gids, totalSets)
		for g := from; g < from+totalSets; g++ {
			sg.gids = append(sg.gids, int32(g))
		}
	}
}

// maxBlockItems caps the postings of one CSR block: starts holds int32
// offsets into ids, so a larger block would wrap its prefix sum. A variable
// only so tests can lower it.
var maxBlockItems int64 = math.MaxInt32

// blockEnd returns the end of the longest run of local sets starting at
// from (and ending by to) whose postings fit in one block. The run holds at
// least one set; a set has at most n < MaxInt32 members, so under the real
// cap it always fits.
func (sg *segment) blockEnd(from, to int) int {
	base := sg.offsets[from]
	if sg.offsets[to]-base <= maxBlockItems {
		return to
	}
	end := from + sort.Search(to-from, func(i int) bool { return sg.offsets[from+i+1]-base > maxBlockItems })
	return max(end, from+1)
}

// appendIndexBlock indexes local sets [from, to) into new CSR blocks: one,
// unless the batch holds more than maxBlockItems postings, in which case it
// is split at set boundaries into blocks that each fit.
// Small trailing blocks are first absorbed (size-tiered, Bentley–Saxe
// style): any block no larger than the batch being appended is merged into
// it, as long as the merged block stays within the cap, so pathological
// many-small-growth loops still leave O(log |R|) blocks and every posting is
// re-placed O(log |R|) times in total. Under a doubling schedule a call's
// batch is about as large as everything before it, so it usually absorbs
// the previous block and re-places its postings: one cold_sparse pass
// places 29.9 M postings for 17.8 M fresh ones (1.68×). A merged block
// reads its sets across the arena extents (each growth is one), so it
// costs no arena copy; merging stops at a mapped block, or at sets in a
// mapped extent, which a rebuild would fault back in. The build itself is
// O(items + n): a counting pass, a prefix sum, and a placement pass in
// ascending set order (which makes every per-node run ascending by
// construction — ascending local order is ascending global order, since a
// segment's global ids are strictly increasing in local index). Large
// batches build in parallel (see buildBlockParallel) with a layout
// bit-identical to the serial pass for any worker count.
func (sg *segment) appendIndexBlock(from, to, workers int) {
	for from < to {
		end := sg.blockEnd(from, to)
		sg.appendBlock(from, end, workers)
		from = end
	}
}

// appendBlock indexes local sets [from, to), whose postings fit in one
// block, after absorbing the trailing blocks appendIndexBlock describes.
func (sg *segment) appendBlock(from, to, workers int) {
	newItems := sg.offsets[to] - sg.offsets[from]
	for len(sg.blocks) > 0 {
		last := &sg.blocks[len(sg.blocks)-1]
		// Mapped blocks are immutable, and a rebuild over mapped extents
		// would fault their sets back in — merging stops at either.
		lastItems := int64(len(last.ids))
		if last.mapped || lastItems > newItems || newItems+lastItems > maxBlockItems || sg.mappedSets(last.lfrom, from) {
			break
		}
		newItems += lastItems
		from = last.lfrom
		sg.blocks = sg.blocks[:len(sg.blocks)-1]
	}
	n := sg.n
	starts := make([]int32, n+1)
	ids := make([]int32, newItems)
	if max := newItems / indexItemsPerWorker; int64(workers) > max {
		workers = int(max)
	}
	// The parallel build's counting scratch is workers·n int32s; keep that
	// proportional to the block being indexed, or a huge-graph/small-block
	// build would pay O(cores·n) transient memory for little speedup.
	if n > 0 {
		if max := 2 * newItems / int64(n); int64(workers) > max {
			workers = int(max)
		}
	}
	if workers > 1 {
		sg.buildBlockParallel(from, to, starts, ids, workers)
	} else {
		sg.buildBlockSerial(from, to, starts, ids)
	}
	sg.blocks = append(sg.blocks, csrBlock{
		from: sg.gid(from), to: sg.gid(to-1) + 1,
		lfrom: from, lto: to,
		starts: starts, ids: ids, lastUse: sg.stamp(),
	})
}

// buildBlockSerial is the single-threaded CSR build: count, prefix-sum,
// place. It reuses the segment's cursor scratch.
func (sg *segment) buildBlockSerial(from, to int, starts, ids []int32) {
	n := sg.n
	sg.countItems(from, to, starts[1:])
	for v := 0; v < n; v++ {
		starts[v+1] += starts[v]
	}
	if cap(sg.cursor) < n {
		sg.cursor = make([]int32, n)
	}
	cursor := sg.cursor[:n]
	copy(cursor, starts[:n])
	sg.placeItems(from, to, cursor, ids)
}

// countItems adds each node's occurrences in local sets [from, to) to
// counts[v].
func (sg *segment) countItems(from, to int, counts []int32) {
	sg.eachPiece(from, to, false, func(lo, hi int, base int64, data []uint32) {
		for _, v := range data[sg.offsets[lo]-base : sg.offsets[hi]-base] {
			counts[v]++
		}
	})
}

// placeItems writes the global id of each of local sets [from, to) at
// cursor[v] for each member v, advancing the cursor.
func (sg *segment) placeItems(from, to int, cursor, ids []int32) {
	sg.eachPiece(from, to, false, func(lo, hi int, base int64, data []uint32) {
		for i := lo; i < hi; i++ {
			id := int32(sg.gid(i))
			for _, v := range data[sg.offsets[i]-base : sg.offsets[i+1]-base] {
				ids[cursor[v]] = id
				cursor[v]++
			}
		}
	})
}

// buildBlockParallel builds the same CSR layout with per-worker passes over
// contiguous set ranges, merged by prefix sum:
//
//  1. split [from, to) into ranges balanced by item count;
//  2. counting pass — worker w histograms its range into counts[w];
//  3. prefix-sum merge — one O(n·workers) serial sweep turns the counts
//     into starts plus per-worker placement cursors (worker w's postings
//     for node v begin at starts[v] + Σ_{w'<w} counts[w'][v]);
//  4. placement pass — each worker writes its range into its disjoint
//     cursor windows.
//
// Because the ranges partition [from, to) in ascending set order, every
// per-node run comes out ascending with postings at exactly the offsets the
// serial pass produces — the block is bit-identical for any worker count.
func (sg *segment) buildBlockParallel(from, to int, starts, ids []int32, workers int) {
	n := sg.n
	base := sg.offsets[from]
	items := sg.offsets[to] - base
	bounds := make([]int, workers+1)
	bounds[0] = from
	for w := 1; w < workers; w++ {
		target := base + items*int64(w)/int64(workers)
		// First set index whose start offset reaches the target split point.
		bounds[w] = from + sort.Search(to-from, func(i int) bool {
			return sg.offsets[from+i] >= target
		})
	}
	bounds[workers] = to

	countsBuf := make([]int32, workers*n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sg.countItems(bounds[w], bounds[w+1], countsBuf[w*n:(w+1)*n])
		}(w)
	}
	wg.Wait()

	for v := 0; v < n; v++ {
		run := starts[v]
		for w := 0; w < workers; w++ {
			cnt := countsBuf[w*n+v]
			countsBuf[w*n+v] = run
			run += cnt
		}
		starts[v+1] = run
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sg.placeItems(bounds[w], bounds[w+1], countsBuf[w*n:(w+1)*n], ids)
		}(w)
	}
	wg.Wait()
}

// Postings iterates over the RR sets containing a node as contiguous
// ascending runs (one per CSR block). Obtain one via PostingsRange on a
// Store. Within every run the global ids are strictly
// ascending and each id appears exactly once across the whole iteration;
// each shard's runs are yielded in turn, so across shards they are disjoint
// but interleaved in global id. No consumer of the Store interface may rely
// on cross-run ordering.
type Postings struct {
	pre  [][]int32  // pre-fetched runs (remote shards), drained first
	seg  *segment   // segment being walked; holding it keeps its mappings live
	more []*segment // remaining segments
	v    uint32
	from int
	upto int
	bi   int
}

// Next returns the next non-empty ascending run of global set ids, or false
// when the iteration is exhausted. Runs are sub-slices of the index blocks —
// no allocation.
func (p *Postings) Next() ([]int32, bool) {
	for {
		if len(p.pre) > 0 {
			run := p.pre[0]
			p.pre = p.pre[1:]
			if len(run) > 0 {
				return run, true
			}
			continue
		}
		for sg := p.seg; sg != nil && p.bi < len(sg.blocks); {
			b := &sg.blocks[p.bi]
			if b.from >= p.upto {
				// Blocks ascend by their global lower bound, so the rest of
				// this segment is out of range.
				p.bi = len(sg.blocks)
				break
			}
			p.bi++
			if b.to <= p.from {
				continue
			}
			if sg.spill != nil && !b.mapped {
				sg.spill.touch(&b.lastUse)
			}
			run := b.ids[b.starts[p.v]:b.starts[p.v+1]]
			if b.from < p.from {
				k := sort.Search(len(run), func(i int) bool { return int(run[i]) >= p.from })
				run = run[k:]
			}
			if b.to > p.upto {
				k := sort.Search(len(run), func(i int) bool { return int(run[i]) >= p.upto })
				run = run[:k]
			}
			if len(run) > 0 {
				return run, true
			}
		}
		if len(p.more) == 0 {
			return nil, false
		}
		p.seg, p.more, p.bi = p.more[0], p.more[1:], 0
	}
}
