package ris

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"stopandstare/internal/graph"
)

// This file is the read half of the durability subsystem: ris.Recover opens
// a committed snapshot as a blockFile, verifies every block's CRC32C, and
// rebuilds a Store whose arena extents and CSR index blocks alias the
// snapshot's mappings through mapBlock — the very path a spilled unit takes,
// so a recovered store starts near zero-resident and serves bit-identical
// answers immediately. Recovery is opening a block file this process did
// not write.
//
// Corruption degrades gracefully instead of failing the store: a bad arena
// or table block discards the stream suffix from the first unrecoverable RR
// set onward (across every shard — the global stream must stay a prefix),
// and the discarded suffix is resampled deterministically from the (seed, i)
// streams, reproducing it bit-identically. A bad CSR index block alone loses
// nothing: the index is derived data, rebuilt from the arena.

// RecoveryInfo reports what Recover restored.
type RecoveryInfo struct {
	// Sets is the store's RR-set count after recovery (discarded suffix
	// resampling included).
	Sets int
	// Discarded is the number of persisted RR sets dropped because a block
	// failed validation; they are resampled deterministically.
	Discarded int
	// Resampled is the number of discarded sets regenerated during Recover
	// (equal to Discarded unless a remote worker was unreachable, in which
	// case the remainder is topped up by the first query).
	Resampled int
	// RebuiltIndexBlocks counts CSR index blocks rebuilt from the arena.
	RebuiltIndexBlocks int
	// SnapshotBytes is the recovered snapshot file's size.
	SnapshotBytes int64
	// Generation is the recovered snapshot's generation number.
	Generation uint64
}

// openSnapshot opens a committed snapshot file read-only for mapBlock. The
// store recovered from it holds it, so its mappings outlive every aliasing
// slice; the finalizer closes it once that store is unreachable.
func openSnapshot(path string) (*blockFile, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			// The committed manifest references a file that is not there:
			// the manifest itself is corrupt, not merely absent.
			return nil, &SnapshotCorruptError{Path: path, Reason: "referenced snapshot missing"}
		}
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	bf := &blockFile{path: path, f: f, size: fi.Size()}
	runtime.SetFinalizer(bf, (*blockFile).close)
	return bf, nil
}

// metaBlock maps the leading meta block — its length is not known in
// advance, so it is read from the header first — and returns its payload
// and the offset of the first data block.
func metaBlock(bf *blockFile) ([]byte, int64, error) {
	var hdr [blockHdrSize]byte
	if _, err := bf.f.ReadAt(hdr[:], 0); err != nil {
		return nil, 0, &SnapshotCorruptError{Path: bf.path, Reason: "meta block header: " + err.Error()}
	}
	plen := int64(binary.LittleEndian.Uint64(hdr[8:]))
	payload, err := bf.mapBlock(0, snapKindMeta, plen)
	if err != nil {
		return nil, 0, &SnapshotCorruptError{Path: bf.path, Reason: "meta block: " + err.Error()}
	}
	return payload, nextBlock(0, plen), nil
}

// Decoded meta-block mirror of the encode side.

type snapExtMeta struct {
	setFrom, setTo int
	items          int64
}

type snapBlkMeta struct {
	lfrom, lto    int
	nStarts, nIds int
}

type snapSegMeta struct {
	nsets   int
	width   int64
	hasGids bool
	exts    []snapExtMeta
	blks    []snapBlkMeta
}

type snapMetaD struct {
	seed     uint64
	model    uint8
	weighted bool
	whash    uint64
	scale    float64
	n        int
	length   int
	shards   int
	remote   bool
	keys     []string
	nonces   []uint64
	epochs   []genEpoch
	segs     []snapSegMeta
}

func decodeSegMeta(r *rbuf) snapSegMeta {
	sm := snapSegMeta{
		nsets:   int(r.u64()),
		width:   r.i64(),
		hasGids: r.u8() != 0,
	}
	ne := int(r.u32())
	for i := 0; i < ne && r.err == nil; i++ {
		sm.exts = append(sm.exts, snapExtMeta{
			setFrom: int(r.u64()), setTo: int(r.u64()), items: r.i64(),
		})
	}
	nb := int(r.u32())
	for i := 0; i < nb && r.err == nil; i++ {
		sm.blks = append(sm.blks, snapBlkMeta{
			lfrom: int(r.u64()), lto: int(r.u64()),
			nStarts: int(r.u64()), nIds: int(r.u64()),
		})
	}
	return sm
}

// validateSegMeta enforces the structural invariants the writer guarantees:
// extents tile [0, nsets) exactly and index blocks tile a prefix [0, X)
// contiguously with full-size starts tables. Violations mean the meta block
// itself cannot be trusted (its CRC already passed, so this is a format
// error, not bit rot).
func validateSegMeta(sm *snapSegMeta, n int) error {
	if sm.nsets < 0 || sm.width < 0 {
		return fmt.Errorf("segment holds %d sets, width %d", sm.nsets, sm.width)
	}
	prev := 0
	for _, x := range sm.exts {
		if x.setFrom != prev || x.setTo <= x.setFrom || x.items < 0 {
			return fmt.Errorf("extent [%d,%d) after %d", x.setFrom, x.setTo, prev)
		}
		prev = x.setTo
	}
	if prev != sm.nsets {
		return fmt.Errorf("extents cover %d of %d sets", prev, sm.nsets)
	}
	prev = 0
	for _, b := range sm.blks {
		if b.lfrom != prev || b.lto <= b.lfrom || b.lto > sm.nsets || b.nStarts != n+1 || b.nIds < 0 {
			return fmt.Errorf("index block [%d,%d) after %d (%d starts)", b.lfrom, b.lto, prev, b.nStarts)
		}
		prev = b.lto
	}
	return nil
}

func decodeStoreMeta(payload []byte, path string) (*snapMetaD, error) {
	corrupt := func(f string, a ...any) error {
		return &SnapshotCorruptError{Path: path, Reason: fmt.Sprintf(f, a...)}
	}
	r := rbuf{b: payload}
	if v := r.u32(); v != snapVersion {
		return nil, corrupt("meta version %d, want %d", v, snapVersion)
	}
	md := &snapMetaD{
		seed:  r.u64(),
		model: r.u8(),
	}
	reserved := r.u8()
	md.weighted = r.u8() != 0
	md.whash = r.u64()
	md.scale = r.f64()
	md.n = int(r.u64())
	md.length = int(r.u64())
	md.shards = int(r.u32())
	md.remote = r.u8() != 0
	if md.n < 0 || md.length < 0 || md.shards < 0 || md.shards > 1<<20 {
		return nil, corrupt("meta n=%d length=%d shards=%d", md.n, md.length, md.shards)
	}
	if md.shards == 0 {
		// Written by the retired flat store: a topology this build cannot
		// hold, not a damaged file. Callers start cold, as for any other
		// topology change.
		return nil, &SnapshotMismatchError{Reason: "snapshot was taken by a flat (shards=0) store"}
	}
	if reserved != 0 {
		// Written by a sampler other than the compiled plan: a different RR
		// stream, so nothing in it can be reused.
		return nil, &SnapshotMismatchError{Reason: fmt.Sprintf("snapshot sampled with kernel %d", reserved)}
	}
	if md.remote {
		for i := 0; i < md.shards && r.err == nil; i++ {
			md.keys = append(md.keys, r.str())
			md.nonces = append(md.nonces, r.u64())
		}
	}
	S := md.shards
	nep := int(r.u32())
	// An epoch is 16·(S+1)+8 bytes, so the payload bounds the count before
	// any bounds table is allocated.
	if nep > r.remaining()/(16*S+24) {
		return nil, corrupt("meta declares %d epochs in %d bytes", nep, r.remaining())
	}
	for i := 0; i < nep && r.err == nil; i++ {
		e := genEpoch{
			from:   int(r.u64()),
			to:     int(r.u64()),
			bounds: make([]int, S+1),
			base:   make([]int, S),
		}
		for s := 0; s <= S; s++ {
			e.bounds[s] = int(r.u64())
		}
		for s := 0; s < S; s++ {
			e.base[s] = int(r.u64())
		}
		md.epochs = append(md.epochs, e)
	}
	nsegs := int(r.u32())
	for i := 0; i < nsegs && r.err == nil; i++ {
		md.segs = append(md.segs, decodeSegMeta(&r))
	}
	if r.err != nil {
		return nil, corrupt("meta payload: %v", r.err)
	}
	if nsegs != md.shards {
		return nil, corrupt("meta declares %d segments for %d shards", nsegs, md.shards)
	}
	for i := range md.segs {
		sm := &md.segs[i]
		// Only a lone in-process shard may run on identity ids.
		if !sm.hasGids && (md.remote || md.shards > 1) {
			return nil, corrupt("segment %d has no gid table under %d shards (remote=%v)", i, md.shards, md.remote)
		}
		if err := validateSegMeta(sm, md.n); err != nil {
			return nil, corrupt("segment %d: %v", i, err)
		}
	}
	// Epoch sanity: contiguous global ranges, monotone bounds.
	prev := 0
	for i := range md.epochs {
		e := &md.epochs[i]
		if e.from != prev || e.to <= e.from || e.bounds[0] != e.from || e.bounds[S] != e.to {
			return nil, corrupt("epoch %d spans [%d,%d) after %d", i, e.from, e.to, prev)
		}
		for s := 0; s < S; s++ {
			if e.bounds[s+1] < e.bounds[s] || e.base[s] < 0 {
				return nil, corrupt("epoch %d bounds not monotone", i)
			}
		}
		prev = e.to
	}
	if prev != md.length {
		return nil, corrupt("epochs cover %d of %d sets", prev, md.length)
	}
	return md, nil
}

// validateMeta matches the snapshot's identity against the store being
// recovered; any difference is a SnapshotMismatchError (callers start cold).
func validateMeta(md *snapMetaD, s *Sampler, seed uint64, opt StoreOptions) error {
	mism := func(f string, a ...any) error {
		return &SnapshotMismatchError{Reason: fmt.Sprintf(f, a...)}
	}
	if md.n != s.g.NumNodes() {
		return mism("graph has %d nodes, snapshot %d", s.g.NumNodes(), md.n)
	}
	if md.seed != seed {
		return mism("seed %d, snapshot %d", seed, md.seed)
	}
	if md.model != uint8(s.model) {
		return mism("model %d, snapshot %d", s.model, md.model)
	}
	if md.weighted != (s.root != nil) || md.whash != weightsHash(s.weights) {
		return mism("weight vector differs")
	}
	remote, shards := len(opt.RemoteWorkers) > 0, max(opt.Shards, 1)
	if remote {
		shards = len(opt.RemoteWorkers)
	}
	if md.remote != remote || md.shards != shards {
		return mism("store has %d shards (remote=%v), snapshot %d (remote=%v)", shards, remote, md.shards, md.remote)
	}
	return nil
}

// segRestore is the per-segment outcome of the block walk: heap copies of
// the small tables, mapped payloads for arena and index blocks, and badFrom,
// the first local set that cannot be restored (nsets when clean).
type segRestore struct {
	sm      *snapSegMeta
	offsets []int64  // heap copy; nil ⇒ badFrom == 0
	gids    []int32  // heap copy; nil unless sm.hasGids and the block is good
	arenas  [][]byte // one payload per extent entry; nil = unrecoverable
	iblocks [][]byte // validated prefix of the index block payloads
	badFrom int
}

// readSegBlocks walks one segment's blocks starting at off, mapping and
// validating each against the meta descriptor, and returns the restore plan
// plus the offset of the next segment's blocks. A block that fails
// validation maps to nil: that unit is gone, never a store-level error.
// Block positions depend only on the meta, so one corrupt payload never
// desynchronizes the walk.
func readSegBlocks(bf *blockFile, sm *snapSegMeta, off int64) (segRestore, int64) {
	r := segRestore{sm: sm, badFrom: sm.nsets}
	plen := int64(sm.nsets+1) * 8
	if p, _ := bf.mapBlock(off, snapKindOffsets, plen); p != nil {
		offs := append([]int64(nil), castSlice[int64](p)...)
		ok := offs[0] == 0
		for i := 1; i < len(offs) && ok; i++ {
			ok = offs[i] >= offs[i-1]
		}
		if ok {
			r.offsets = offs
		}
	}
	if r.offsets == nil {
		r.badFrom = 0
	}
	off = nextBlock(off, plen)
	if sm.hasGids {
		plen = int64(sm.nsets) * 4
		if p, _ := bf.mapBlock(off, snapKindGids, plen); p != nil {
			gids := append([]int32(nil), castSlice[int32](p)...)
			ok := true
			for i := 1; i < len(gids) && ok; i++ {
				ok = gids[i] > gids[i-1]
			}
			if ok {
				r.gids = gids
			}
		}
		if r.gids == nil {
			r.badFrom = 0
		}
		off = nextBlock(off, plen)
	}
	for _, x := range sm.exts {
		plen = x.items * 4
		p, _ := bf.mapBlock(off, snapKindArena, plen)
		off = nextBlock(off, plen)
		if p != nil && r.offsets != nil && r.offsets[x.setTo]-r.offsets[x.setFrom] != x.items {
			p = nil // meta and offset table disagree; the extent is unusable
		}
		if p == nil && x.setFrom < r.badFrom {
			r.badFrom = x.setFrom
		}
		r.arenas = append(r.arenas, p)
	}
	good := true
	for _, b := range sm.blks {
		plen = int64(b.nStarts+b.nIds) * 4
		p, _ := bf.mapBlock(off, snapKindIndex, plen)
		off = nextBlock(off, plen)
		if good && p != nil {
			all := castSlice[int32](p)
			if int(all[b.nStarts-1]) == b.nIds {
				r.iblocks = append(r.iblocks, p)
				continue
			}
		}
		good = false
	}
	return r, off
}

// gidOfLocalZero returns the global id of shard s's first local set, from
// the epoch table (the first epoch that assigned the shard any sets).
func gidOfLocalZero(epochs []genEpoch, s int) int {
	for i := range epochs {
		e := &epochs[i]
		if e.bounds[s+1] > e.bounds[s] {
			return e.bounds[s]
		}
	}
	return int(^uint(0) >> 1) // shard never got sets; nothing to discard
}

// restoreSegment populates sg from the restore plan, truncated to its first
// c local sets. Extents and index blocks alias the snapshot's mappings
// (marked mapped), so they are excluded from resident accounting and from
// spill eviction exactly like spilled units; the tail restarts empty, so
// growth appends normally. keepIndex is false for remote mirror segments
// (their CSR blocks live worker-side). Returns the number of index blocks
// rebuilt from the arena.
func restoreSegment(sg *segment, r *segRestore, c int, g *graph.Graph, keepIndex bool) int {
	if c <= 0 {
		return 0
	}
	sg.offsets = r.offsets[:c+1]
	if r.sm.hasGids {
		sg.gids = r.gids[:c]
	}
	for ei, x := range r.sm.exts {
		if x.setFrom >= c {
			break
		}
		setTo := x.setTo
		if setTo > c {
			setTo = c
		}
		sg.exts = append(sg.exts, arenaExtent{
			setFrom: x.setFrom, setTo: setTo,
			base: sg.offsets[x.setFrom], end: sg.offsets[setTo],
			data: castSlice[uint32](r.arenas[ei]), mapped: true,
		})
	}
	sg.tailSet = c
	sg.tailBase = sg.offsets[c]
	sg.buf = nil
	if c == r.sm.nsets {
		sg.width = r.sm.width
	} else {
		// The suffix was discarded; per-set widths are not stored, so the
		// kept prefix's width is recomputed from the arena (corruption path
		// only — a clean recovery never walks the sets).
		var w int64
		for i := 0; i < c; i++ {
			for _, v := range sg.setAt(i) {
				w += int64(g.InDegree(v))
			}
		}
		sg.width = w
	}
	if !keepIndex {
		return 0
	}
	lcov := 0
	for bi, p := range r.iblocks {
		bm := &r.sm.blks[bi]
		if bm.lto > c {
			break
		}
		all := castSlice[int32](p)
		starts := all[:bm.nStarts:bm.nStarts]
		ids := all[bm.nStarts : bm.nStarts+bm.nIds]
		sg.blocks = append(sg.blocks, csrBlock{
			from: sg.gid(bm.lfrom), to: sg.gid(bm.lto-1) + 1,
			lfrom: bm.lfrom, lto: bm.lto,
			starts: starts, ids: ids, mapped: true,
		})
		lcov = bm.lto
	}
	if lcov < c {
		rebuildIndexBlocks(sg, lcov, c)
		return 1
	}
	return 0
}

// rebuildIndexBlocks indexes local sets [from, to) reading through setAt
// (the sets live in mapped extents, outside the tail the normal build path
// slices), in as many blocks as maxBlockItems requires. Only the recovery
// path uses it: dropped or truncated index blocks are derived data,
// reconstructed from the arena.
func rebuildIndexBlocks(sg *segment, from, to int) {
	for from < to {
		end := sg.blockEnd(from, to)
		rebuildIndexBlock(sg, from, end)
		from = end
	}
}

// rebuildIndexBlock builds one CSR block over local sets [from, to).
func rebuildIndexBlock(sg *segment, from, to int) {
	n := sg.n
	starts := make([]int32, n+1)
	for i := from; i < to; i++ {
		for _, v := range sg.setAt(i) {
			starts[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		starts[v+1] += starts[v]
	}
	ids := make([]int32, int(sg.offsets[to]-sg.offsets[from]))
	cursor := make([]int32, n)
	copy(cursor, starts[:n])
	for i := from; i < to; i++ {
		id := int32(sg.gid(i))
		for _, v := range sg.setAt(i) {
			ids[cursor[v]] = id
			cursor[v]++
		}
	}
	sg.blocks = append(sg.blocks, csrBlock{
		from: sg.gid(from), to: sg.gid(to-1) + 1,
		lfrom: from, lto: to,
		starts: starts, ids: ids,
	})
}

// Recover rebuilds the Store described by (s, seed, opt) from the committed
// snapshot in dir. On success the returned store serves answers
// bit-identical to the persisted one: RR set i is a pure function of
// (seed, i), so even a corrupt-suffix discard is repaired exactly by
// deterministic resampling (performed here; for remote stores an unreachable
// worker defers the top-up to the first query).
//
// Errors mean nothing was recovered and the caller should start cold:
// ErrNoSnapshot (empty dir — the normal first boot), *SnapshotMismatchError
// (snapshot belongs to a different store), *SnapshotCorruptError (manifest
// or meta unusable).
func Recover(s *Sampler, seed uint64, opt StoreOptions, dir string) (Store, *RecoveryInfo, error) {
	man, err := loadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, man.Snapshot)
	bf, err := openSnapshot(path)
	if err != nil {
		return nil, nil, err
	}
	md, off, err := readStoreMeta(bf)
	if err == nil {
		err = validateMeta(md, s, seed, opt)
	}
	if err != nil {
		bf.close()
		return nil, nil, err
	}

	restores := make([]segRestore, len(md.segs))
	for i := range md.segs {
		restores[i], off = readSegBlocks(bf, &md.segs[i], off)
	}

	// Global cutoff: the stream must stay a prefix of (seed, i), so the
	// first unrecoverable RR set anywhere truncates every shard to the sets
	// below its global id.
	cutoff := md.length
	for si := range restores {
		r := &restores[si]
		if r.badFrom >= r.sm.nsets {
			continue
		}
		var g int
		switch {
		case !r.sm.hasGids:
			g = r.badFrom // identity ids
		case r.gids != nil:
			g = int(r.gids[r.badFrom])
		default:
			g = gidOfLocalZero(md.epochs, si)
		}
		if g < cutoff {
			cutoff = g
		}
	}

	epochs := md.epochs
	if cutoff < md.length {
		kept := make([]genEpoch, 0, len(epochs))
		for i := range epochs {
			e := epochs[i]
			if e.to <= cutoff {
				kept = append(kept, e)
				continue
			}
			if e.from >= cutoff {
				break
			}
			e.to = cutoff
			e.bounds = append([]int(nil), e.bounds...)
			for s := range e.bounds {
				if e.bounds[s] > cutoff {
					e.bounds[s] = cutoff
				}
			}
			kept = append(kept, e)
			break
		}
		epochs = kept
	}

	// Per-segment kept-set counts under the cutoff.
	cs := make([]int, len(md.segs))
	for i := range epochs {
		e := &epochs[i]
		for s := range cs {
			cs[s] += e.bounds[s+1] - e.bounds[s]
		}
	}

	st := newStore(s, seed, opt)
	info := &RecoveryInfo{
		Discarded:     md.length - cutoff,
		SnapshotBytes: bf.size,
		Generation:    man.Generation,
	}
	for i := range st.segs {
		info.RebuiltIndexBlocks += restoreSegment(st.segs[i], &restores[i], cs[i], s.g, st.remotes == nil)
	}
	st.epochs = epochs
	st.length = cutoff
	st.snap = bf
	for i, rs := range st.remotes {
		rs.key = md.keys[i]
		rs.nonce = md.nonces[i]
	}

	// Resample the discarded suffix deterministically. A remote store may be
	// unable to reach its workers yet; that is not a recovery failure — the
	// store stays at the cutoff and the first query tops it up.
	if cutoff < md.length {
		func() {
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(*ShardError); !ok {
						panic(p)
					}
				}
			}()
			st.GenerateTo(md.length)
		}()
	}
	info.Sets = st.Len()
	info.Resampled = info.Sets - cutoff
	return st, info, nil
}

// readStoreMeta validates and decodes the leading meta block, returning the
// decoded meta and the offset of the first data block.
func readStoreMeta(bf *blockFile) (*snapMetaD, int64, error) {
	payload, off, err := metaBlock(bf)
	if err != nil {
		return nil, 0, err
	}
	md, err := decodeStoreMeta(payload, bf.path)
	if err != nil {
		return nil, 0, err
	}
	return md, off, nil
}
