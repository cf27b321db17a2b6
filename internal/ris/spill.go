package ris

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
)

// This file is the disk spill tier of the RR-set store: when a store is
// built with StoreOptions.SpillBudgetBytes, cold frozen arena extents and
// cold CSR index blocks are serialized to an append-only SpillFile and
// immediately re-read through a shared read-only mapping, so every access
// path (Set, ForEachSet, PostingsRange, the coverage walks) keeps working on
// the exact same slices-of-block layout — "fault-in" is the OS paging the
// bytes back through the mapping, and the page cache is the hot tier.
//
// Layout: blocks (see blockfile.go for the shared header codec) are appended
// at mapping-granularity-aligned offsets, so each can be mapped on its own.
// Payload bytes are raw host-order []uint32 / []int32 images: the file is
// process-private scratch (created in SpillDir, never an interchange
// format), so casting them back in the same process is endian-agnostic.
//
// Concurrency: spilling happens only under the store's mutation exclusivity
// (the same discipline as growth — the session layer holds its write lock
// across both), and a mapping, once created, is never released until the
// whole SpillFile closes. Concurrent readers therefore never observe a unit
// mid-move and can never fault on an unmapped page. LRU recency stamps are
// the single spill-tier field readers touch, and they are atomic.

// spillMagic is "SPIL" read as a little-endian uint32.
const spillMagic = 0x4C495053

// Spill block kinds (header byte 4).
const (
	spillKindArena byte = 1 // frozen arena extent: []uint32 items
	spillKindIndex byte = 2 // CSR index block: []int32 starts ++ []int32 ids
)

// ErrBadSpill reports a structurally invalid spill block: bad magic, kind or
// length in the header, or a file too short to hold the recorded payload.
// Mirrors graph.ErrBadMapped for .sasg files.
var ErrBadSpill = errors.New("ris: bad spill block")

// SpillWriteError reports a failed spill-file create, append or truncate
// (disk full, I/O error). The store that hit it stays consistent and fully
// resident: the unit being spilled keeps its heap copy and the store stops
// spilling (SpillStats.Err surfaces the cause).
type SpillWriteError struct {
	Path string
	Err  error
}

func (e *SpillWriteError) Error() string {
	return fmt.Sprintf("ris: spill write %s: %v", e.Path, e.Err)
}

func (e *SpillWriteError) Unwrap() error { return e.Err }

// spillBlockMeta is the in-memory record of one appended block, validated
// against the block's on-disk header on every map.
type spillBlockMeta struct {
	off    int64 // aligned file offset of the 64-byte header
	length int64 // payload bytes following the header
	kind   byte
}

// SpillFile is an append-only file of spill blocks plus the read-only
// mappings handed out over them. It is created lazily on the first spill,
// unlinked immediately where the OS allows it (crash leaks nothing), and
// finalized when the owning store becomes unreachable — stores have no Close
// in their lifecycle, eviction just drops references.
type SpillFile struct {
	f       *os.File
	path    string
	removed bool
	align   int64 // block offset granularity: max(page size, 64)
	size    int64 // file size == next aligned append offset
	blocks  []spillBlockMeta
	maps    []*spillMapping

	// writeAt is the append write path; tests inject failures here.
	writeAt func(p []byte, off int64) (int, error)
}

func newSpillFile(dir string) (*SpillFile, error) {
	f, err := os.CreateTemp(dir, "rrspill-*.spill")
	if err != nil {
		return nil, &SpillWriteError{Path: dir, Err: err}
	}
	sf := &SpillFile{f: f, path: f.Name(), align: max(int64(os.Getpagesize()), blockHdrSize)}
	sf.writeAt = f.WriteAt
	if runtime.GOOS != "windows" {
		if os.Remove(sf.path) == nil {
			sf.removed = true
		}
	}
	runtime.SetFinalizer(sf, func(sf *SpillFile) { sf.Close() })
	return sf, nil
}

// append writes one block (header + concatenated parts) at the next aligned
// offset and returns its id. The file is extended to the next alignment
// boundary so every byte of a future mapping is file-backed. On error
// nothing is recorded and the file is reused at the same offset.
func (sf *SpillFile) append(kind byte, parts ...[]byte) (int, error) {
	off := sf.size
	hdr, plen := blockHeader(spillMagic, kind, parts)
	if _, err := sf.writeAt(hdr[:], off); err != nil {
		return 0, &SpillWriteError{Path: sf.path, Err: err}
	}
	pos := off + blockHdrSize
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		if _, err := sf.writeAt(p, pos); err != nil {
			return 0, &SpillWriteError{Path: sf.path, Err: err}
		}
		pos += int64(len(p))
	}
	end := (pos + sf.align - 1) / sf.align * sf.align
	if err := sf.f.Truncate(end); err != nil {
		return 0, &SpillWriteError{Path: sf.path, Err: err}
	}
	id := len(sf.blocks)
	sf.blocks = append(sf.blocks, spillBlockMeta{off: off, length: plen, kind: kind})
	sf.size = end
	return id, nil
}

// mapPayload maps block id read-only and returns its payload bytes. The
// file's size is checked before mapping (touching a mapped page past EOF
// faults) and the mapped block is validated before it is handed out, so a
// truncated or corrupted spill file surfaces as ErrBadSpill instead of a
// fault. The returned slice stays valid until the SpillFile closes.
func (sf *SpillFile) mapPayload(id int, kind byte) ([]byte, error) {
	if id < 0 || id >= len(sf.blocks) {
		return nil, fmt.Errorf("%w: block %d out of range (%d blocks)", ErrBadSpill, id, len(sf.blocks))
	}
	meta := sf.blocks[id]
	if meta.kind != kind {
		return nil, fmt.Errorf("%w: block %d kind %d, want %d", ErrBadSpill, id, meta.kind, kind)
	}
	fi, err := sf.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("%w: block %d: %v", ErrBadSpill, id, err)
	}
	if need := meta.off + blockHdrSize + meta.length; fi.Size() < need {
		return nil, fmt.Errorf("%w: block %d truncated: file is %d bytes, need %d", ErrBadSpill, id, fi.Size(), need)
	}
	m, err := mapSpillBlock(sf.f, meta.off, blockHdrSize+meta.length)
	if err != nil {
		return nil, err
	}
	payload, err := blockPayload(m.data, 0, spillMagic, kind, meta.length)
	if err != nil {
		m.release()
		return nil, fmt.Errorf("%w: block %d: %v", ErrBadSpill, id, err)
	}
	sf.maps = append(sf.maps, m)
	return payload, nil
}

// Close releases every mapping and the backing file. It must only run once
// no slice aliasing a mapping can be reached — the finalizer path, or test
// teardown of a store that is done.
func (sf *SpillFile) Close() error {
	runtime.SetFinalizer(sf, nil)
	for _, m := range sf.maps {
		m.release()
	}
	sf.maps = nil
	err := sf.f.Close()
	if !sf.removed {
		os.Remove(sf.path)
	}
	return err
}

// spillState is the spill tier shared by every segment of one store (or
// every shard of one worker process): the budget, the lazily created file,
// the LRU clock, and the first failure (after which spilling stops and the
// store stays consistent resident-only). All fields except clock are
// mutated only under the store's mutation exclusivity; clock is stamped
// atomically by concurrent readers.
type spillState struct {
	budget int64
	dir    string
	f      *SpillFile
	clock  uint64 // atomic LRU recency source
	err    error  // first spill failure; sticky

	// testWriteAt, when set, replaces the file's append write path (disk
	// full / I/O error injection).
	testWriteAt func(p []byte, off int64) (int, error)
}

func newSpillState(budget int64, dir string) *spillState {
	return &spillState{budget: budget, dir: dir}
}

// tick returns the next LRU recency stamp.
func (sp *spillState) tick() uint64 { return atomic.AddUint64(&sp.clock, 1) }

func (sp *spillState) file() (*SpillFile, error) {
	if sp.f == nil {
		f, err := newSpillFile(sp.dir)
		if err != nil {
			return nil, err
		}
		if sp.testWriteAt != nil {
			f.writeAt = sp.testWriteAt
		}
		sp.f = f
	}
	return sp.f, nil
}

// enforce spills globally-coldest resident units (frozen arena extents and
// CSR index blocks, across all segs) until their total resident bytes drop
// to budget. When every frozen unit is already spilled it seals the active
// arena tails into new extents and continues; the irreducible floor is the
// offset/gid tables and per-unit metadata, which always stay resident.
// Must run under the store's mutation exclusivity (the growth discipline).
// A spill failure is recorded, returned, and stops all future spilling.
func (sp *spillState) enforce(budget int64, segs []*segment) error {
	if sp.err != nil {
		return sp.err
	}
	for {
		var resident int64
		for _, sg := range segs {
			resident += sg.residentBytes()
		}
		if resident <= budget {
			return nil
		}
		var (
			vsg    *segment
			vext   = -1
			vblk   = -1
			oldest uint64
			found  bool
		)
		for _, sg := range segs {
			for ei := range sg.exts {
				e := &sg.exts[ei]
				if e.mapped != nil {
					continue
				}
				if use := atomic.LoadUint64(&e.lastUse); !found || use < oldest {
					vsg, vext, vblk, oldest, found = sg, ei, -1, use, true
				}
			}
			for bi := range sg.blocks {
				b := &sg.blocks[bi]
				if b.spilled != nil {
					continue
				}
				if use := atomic.LoadUint64(&b.lastUse); !found || use < oldest {
					vsg, vext, vblk, oldest, found = sg, -1, bi, use, true
				}
			}
		}
		if !found {
			sealed := false
			for _, sg := range segs {
				if len(sg.buf) > 0 {
					sg.seal()
					sealed = true
				}
			}
			if !sealed {
				return nil // at the resident floor; nothing left to spill
			}
			continue
		}
		var err error
		if vext >= 0 {
			err = sp.spillExtent(&vsg.exts[vext])
		} else {
			err = sp.spillBlock(&vsg.blocks[vblk])
		}
		if err != nil {
			sp.err = err
			return err
		}
	}
}

// spillExtent moves one frozen arena extent's items onto the spill file,
// re-pointing data at the shared mapping. The heap copy is only dropped
// after the mapped bytes are in place, so failure leaves the extent
// resident and untouched.
func (sp *spillState) spillExtent(e *arenaExtent) error {
	f, err := sp.file()
	if err != nil {
		return err
	}
	id, err := f.append(spillKindArena, rawBytes(e.data))
	if err != nil {
		return err
	}
	payload, err := f.mapPayload(id, spillKindArena)
	if err != nil {
		return err
	}
	if int64(len(payload)) != 4*int64(len(e.data)) {
		return fmt.Errorf("%w: arena block %d payload %d bytes, want %d", ErrBadSpill, id, len(payload), 4*len(e.data))
	}
	e.data = castSlice[uint32](payload)
	e.mapped = f.maps[len(f.maps)-1]
	return nil
}

// spillBlock moves one CSR index block's starts+ids onto the spill file as a
// single payload, re-pointing both slices at the shared mapping.
func (sp *spillState) spillBlock(b *csrBlock) error {
	f, err := sp.file()
	if err != nil {
		return err
	}
	id, err := f.append(spillKindIndex, rawBytes(b.starts), rawBytes(b.ids))
	if err != nil {
		return err
	}
	payload, err := f.mapPayload(id, spillKindIndex)
	if err != nil {
		return err
	}
	ns, ni := len(b.starts), len(b.ids)
	if int64(len(payload)) != 4*int64(ns+ni) {
		return fmt.Errorf("%w: index block %d payload %d bytes, want %d", ErrBadSpill, id, len(payload), 4*(ns+ni))
	}
	all := castSlice[int32](payload)
	b.starts = all[:ns:ns]
	b.ids = all[ns : ns+ni]
	b.spilled = f.maps[len(f.maps)-1]
	return nil
}

// SpillStats describes a store's disk spill tier (zero value when the store
// was built without a spill budget).
type SpillStats struct {
	// Enabled reports whether the store has a spill tier.
	Enabled bool
	// BudgetBytes is the resident-byte threshold growth is enforced to.
	BudgetBytes int64
	// SpilledBytes is RR data currently aliasing the spill file (served
	// from the shared mapping / page cache, not from the heap).
	SpilledBytes int64
	// FileBytes is the spill file's on-disk size, block headers and
	// alignment padding included.
	FileBytes int64
	// Blocks is the number of spill blocks written (arena + index).
	Blocks int
	// Err is the first spill failure ("" = healthy); after one the store
	// stops spilling and stays consistent resident-only.
	Err string
}

func spillStatsOf(sp *spillState, segs []*segment) SpillStats {
	if sp == nil {
		return SpillStats{}
	}
	st := SpillStats{Enabled: true, BudgetBytes: sp.budget}
	for _, sg := range segs {
		st.SpilledBytes += sg.spilledBytes()
	}
	if sp.f != nil {
		st.FileBytes = sp.f.size
		st.Blocks = len(sp.f.blocks)
	}
	if sp.err != nil {
		st.Err = sp.err.Error()
	}
	return st
}
