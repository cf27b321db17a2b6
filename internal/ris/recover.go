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
// or offset block discards the stream suffix from the first unrecoverable RR
// set onward (the stream must stay a prefix), and the discarded suffix is
// resampled deterministically from the (seed, i) streams, reproducing it
// bit-identically. A bad CSR index block alone loses nothing: the index is
// derived data, rebuilt from the arena.

// RecoveryInfo reports what Recover restored.
type RecoveryInfo struct {
	// Sets is the store's RR-set count after recovery (discarded suffix
	// resampling included).
	Sets int
	// Discarded is the number of persisted RR sets dropped because a block
	// failed validation; Recover resamples them deterministically.
	Discarded int
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
	nsets int
	width int64
	exts  []snapExtMeta
	blks  []snapBlkMeta
}

// snapMetaD is a decoded meta block: the store identity and epoch table,
// and the one segment's descriptor.
type snapMetaD struct {
	storeMeta
	seg snapSegMeta
}

// decodeSegMeta reads a segment descriptor; gids reports the flag byte that
// announced a gid table in multi-shard snapshots.
func decodeSegMeta(r *rbuf) (sm snapSegMeta, gids bool) {
	sm.nsets = int(r.u64())
	sm.width = r.i64()
	gids = r.u8() != 0
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
	return sm, gids
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

// decodeStoreMeta decodes and checks a meta block. A meta of any topology
// but one in-process shard is a *SnapshotMismatchError, answered before any
// table is allocated; a meta whose epochs, segment and declared length do
// not describe the same [0, length) is a *SnapshotCorruptError.
func decodeStoreMeta(payload []byte, path string) (*snapMetaD, error) {
	corrupt := func(f string, a ...any) error {
		return &SnapshotCorruptError{Path: path, Reason: fmt.Sprintf(f, a...)}
	}
	r := rbuf{b: payload}
	if v := r.u32(); v != snapVersion {
		return nil, corrupt("meta version %d, want %d", v, snapVersion)
	}
	md := &snapMetaD{}
	md.seed = r.u64()
	md.model = r.u8()
	reserved := r.u8()
	md.weighted = r.u8() != 0
	md.whash = r.u64()
	md.scale = r.f64()
	md.n = int(r.u64())
	md.length = int(r.u64())
	shards, remote := r.u32(), r.u8() != 0
	if r.err != nil || md.n < 0 || md.length < 0 {
		return nil, corrupt("meta n=%d length=%d (%v)", md.n, md.length, r.err)
	}
	if shards != 1 || remote {
		// Written by the retired flat store (shards = 0) or by a multi-shard
		// or remote store of an earlier build: a topology this build does
		// not persist, not a damaged file. Callers start cold.
		return nil, &SnapshotMismatchError{Reason: fmt.Sprintf("snapshot of a %d-shard store (remote=%v)", shards, remote)}
	}
	if reserved != 0 {
		// Written by a sampler other than the compiled plan: a different RR
		// stream, so nothing in it can be reused.
		return nil, &SnapshotMismatchError{Reason: fmt.Sprintf("snapshot sampled with kernel %d", reserved)}
	}
	nep := int(r.u32())
	// An epoch is five words, so the payload bounds the count before the
	// table is allocated.
	if nep > r.remaining()/40 {
		return nil, corrupt("meta declares %d epochs in %d bytes", nep, r.remaining())
	}
	md.epochs = make([]genEpoch, nep)
	prev := 0
	for i := range md.epochs {
		from, to := int(r.u64()), int(r.u64())
		lo, hi, base := int(r.u64()), int(r.u64()), int(r.u64())
		// The epochs tile [0, length), and one shard's bounds and base are
		// the epoch's own range.
		if from != prev || to <= from || lo != from || hi != to || base != from {
			return nil, corrupt("epoch %d spans [%d,%d) after %d, bounds [%d,%d), base %d", i, from, to, prev, lo, hi, base)
		}
		md.epochs[i] = genEpoch{from: from, to: to, bounds: []int{from, to}, base: []int{from}}
		prev = to
	}
	nsegs := r.u32()
	sm, gids := decodeSegMeta(&r)
	if r.err != nil {
		return nil, corrupt("meta payload: %v", r.err)
	}
	if prev != md.length {
		return nil, corrupt("epochs cover %d of %d sets", prev, md.length)
	}
	if nsegs != 1 || gids || sm.nsets != md.length {
		return nil, corrupt("meta declares %d segments (gid table %v) holding %d of %d sets", nsegs, gids, sm.nsets, md.length)
	}
	if err := validateSegMeta(&sm, md.n); err != nil {
		return nil, corrupt("segment: %v", err)
	}
	md.seg = sm
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
	if opt.Shards > 1 || len(opt.RemoteWorkers) > 0 {
		return mism("a snapshot holds one in-process shard; the store has %d shards, %d remote", opt.Shards, len(opt.RemoteWorkers))
	}
	return nil
}

// segRestore is the outcome of the block walk: a heap copy of the offset
// table, mapped payloads for arena and index blocks, and badFrom, the first
// set that cannot be restored (nsets when clean).
type segRestore struct {
	sm      *snapSegMeta
	offsets []int64  // heap copy; nil ⇒ badFrom == 0
	arenas  [][]byte // one payload per extent entry; nil = unrecoverable
	iblocks [][]byte // validated prefix of the index block payloads
	badFrom int
}

// readSegBlocks walks the segment's blocks starting at off, mapping and
// validating each against the meta descriptor, and returns the restore
// plan. A block that fails validation maps to nil: that unit is gone, never
// a store-level error. Block positions depend only on the meta, so one
// corrupt payload never desynchronizes the walk.
func readSegBlocks(bf *blockFile, sm *snapSegMeta, off int64) segRestore {
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
	for _, b := range sm.blks {
		plen = int64(b.nStarts+b.nIds) * 4
		p, _ := bf.mapBlock(off, snapKindIndex, plen)
		off = nextBlock(off, plen)
		// An index block lists every item of its sets once, so its id count
		// must be their item count, and its last start must close the ids.
		if p == nil || r.offsets == nil || int64(b.nIds) != r.offsets[b.lto]-r.offsets[b.lfrom] ||
			int(castSlice[int32](p)[b.nStarts-1]) != b.nIds {
			break
		}
		r.iblocks = append(r.iblocks, p)
	}
	return r
}

// restoreSegment populates sg from the restore plan, truncated to its first
// c sets. Extents and index blocks alias the snapshot's mappings (marked
// mapped), so they are excluded from resident accounting and from spill
// eviction exactly like spilled units; the tail restarts empty, so growth
// appends normally. Returns the number of index blocks rebuilt from the
// arena.
func restoreSegment(sg *segment, r *segRestore, c int, g *graph.Graph) int {
	if c <= 0 {
		return 0
	}
	sg.offsets = r.offsets[:c+1]
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
		// Taken from the meta on trust: checking it would cost a pass over
		// every item, several times the rest of the recovery.
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
	lcov := 0
	for bi, p := range r.iblocks {
		bm := &r.sm.blks[bi]
		if bm.lto > c {
			break
		}
		all := castSlice[int32](p)
		sg.blocks = append(sg.blocks, csrBlock{
			from: bm.lfrom, to: bm.lto, lfrom: bm.lfrom, lto: bm.lto,
			starts: all[:bm.nStarts:bm.nStarts], ids: all[bm.nStarts : bm.nStarts+bm.nIds],
			mapped: true,
		})
		lcov = bm.lto
	}
	if lcov < c {
		rebuildIndexBlocks(sg, lcov, c)
		return 1
	}
	return 0
}

// rebuildIndexBlocks indexes sets [from, to) reading through setAt
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

// rebuildIndexBlock builds one CSR block over sets [from, to); a recovered
// segment is the lone shard, so its local indices are the global ids.
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
		for _, v := range sg.setAt(i) {
			ids[cursor[v]] = int32(i)
			cursor[v]++
		}
	}
	sg.blocks = append(sg.blocks, csrBlock{
		from: from, to: to, lfrom: from, lto: to,
		starts: starts, ids: ids,
	})
}

// Recover rebuilds the Store described by (s, seed, opt) from the committed
// snapshot in dir. On success the returned store serves answers
// bit-identical to the persisted one: RR set i is a pure function of
// (seed, i), so even a corrupt-suffix discard is repaired exactly by
// deterministic resampling, performed here.
//
// Errors mean nothing was recovered and the caller should start cold:
// ErrNoSnapshot (empty dir — the normal first boot), *SnapshotMismatchError
// (snapshot belongs to a different store, or opt asks for several or remote
// shards), *SnapshotCorruptError (manifest or meta unusable).
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
	payload, off, err := metaBlock(bf)
	var md *snapMetaD
	if err == nil {
		md, err = decodeStoreMeta(payload, bf.path)
	}
	if err == nil {
		err = validateMeta(md, s, seed, opt)
	}
	if err != nil {
		bf.close()
		return nil, nil, err
	}

	r := readSegBlocks(bf, &md.seg, off)
	// The stream must stay a prefix of (seed, i): the first unrecoverable
	// set is the cutoff, and the epoch it falls in is clipped to it.
	cutoff := r.badFrom
	epochs := md.epochs
	for i := range epochs {
		if e := &epochs[i]; e.to >= cutoff {
			if e.from == cutoff {
				epochs = epochs[:i]
			} else {
				e.to, e.bounds[1] = cutoff, cutoff
				epochs = epochs[:i+1]
			}
			break
		}
	}

	st := newStore(s, seed, opt)
	info := &RecoveryInfo{
		Discarded:          md.length - cutoff,
		RebuiltIndexBlocks: restoreSegment(st.segs[0], &r, cutoff, s.g),
		SnapshotBytes:      bf.size,
		Generation:         man.Generation,
	}
	st.epochs = epochs
	st.length = cutoff
	st.snap = bf
	st.GenerateTo(md.length) // resamples a discarded suffix; a no-op when clean
	info.Sets = st.Len()
	return st, info, nil
}
