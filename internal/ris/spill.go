package ris

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"

	"stopandstare/internal/mapfile"
)

// This file is the disk spill tier of the RR-set store: when a store is
// built with StoreOptions.SpillBudgetBytes, cold arena extents and cold CSR
// index blocks are appended to a spill file — a blockFile
// (blockfile.go) of arena and index blocks, the layout snapshots use — and
// mapped back shared and read-only (mapfile.Map), so every access path (Set,
// ForEachSet, PostingsRange, the coverage walks) keeps working on the exact
// same slices-of-block layout. The block's checksum is verified through the new
// mapping, whose pages then leave the resident set (mapBlock): a spilled
// unit holds no resident page until a query reads it — "fault-in" is the
// OS paging the bytes back through the mapping, and the page cache is the
// hot tier. The file is process-private scratch, created in SpillDir and
// unlinked at creation where the OS allows it, so a crash leaks nothing.
//
// Concurrency: spilling happens only under the store's mutation exclusivity
// (the same discipline as growth — the session layer holds its write lock
// across both), and a mapping, once created, is never released until the
// whole file closes. Concurrent readers therefore never observe a unit
// mid-move and can never fault on an unmapped page. LRU recency stamps are
// the single spill-tier field readers touch, and they are atomic.

// SpillWriteError reports a failed spill-file create or append (disk full,
// I/O error). The store that hit it stays consistent and fully resident:
// the unit being spilled keeps its heap copy and the store stops spilling
// (SpillStats.Err surfaces the cause).
type SpillWriteError struct {
	Path string
	Err  error
}

func (e *SpillWriteError) Error() string {
	return fmt.Sprintf("ris: spill write %s: %v", e.Path, e.Err)
}

func (e *SpillWriteError) Unwrap() error { return e.Err }

// newSpillFile creates an empty spill file in dir. Stores have no Close in
// their lifecycle (eviction just drops references), so the file is closed
// by its finalizer once the owning store becomes unreachable.
func newSpillFile(dir string) (*blockFile, error) {
	f, err := os.CreateTemp(dir, "rrspill-*.spill")
	if err != nil {
		return nil, &SpillWriteError{Path: dir, Err: err}
	}
	bf := &blockFile{path: f.Name(), w: f, f: f}
	bf.remove = runtime.GOOS == "windows" || os.Remove(bf.path) != nil
	runtime.SetFinalizer(bf, (*blockFile).close)
	return bf, nil
}

// spillState is the spill tier shared by every segment of one store: the
// budget, the lazily created file, the LRU clock, and the first failure
// (after which spilling stops and the store stays consistent
// resident-only). All fields except clock are
// mutated only under the store's mutation exclusivity; clock is stamped
// atomically by concurrent readers.
type spillState struct {
	budget int64
	dir    string
	f      *blockFile
	clock  uint64 // atomic LRU recency source
	err    error  // first spill failure; sticky
}

func newSpillState(budget int64, dir string) *spillState {
	return &spillState{budget: budget, dir: dir}
}

// tick returns the next LRU recency stamp.
func (sp *spillState) tick() uint64 { return atomic.AddUint64(&sp.clock, 1) }

// touch stamps a read of the unit whose recency is *use. A unit that holds
// the newest stamp already keeps it, which leaves the LRU order unchanged
// and spares a run of reads of one unit the shared clock's cache line.
func (sp *spillState) touch(use *uint64) {
	if atomic.LoadUint64(use) != atomic.LoadUint64(&sp.clock) {
		atomic.StoreUint64(use, sp.tick())
	}
}

func (sp *spillState) file() (*blockFile, error) {
	if sp.f == nil {
		f, err := newSpillFile(sp.dir)
		if err != nil {
			return nil, err
		}
		sp.f = f
	}
	return sp.f, nil
}

// enforce spills globally-coldest resident units (arena extents and CSR
// index blocks, across all segs) until their total resident bytes drop to
// budget. The irreducible floor is the offset/gid tables and per-unit
// metadata, which always stay resident.
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
				if e.mapped {
					continue
				}
				if use := atomic.LoadUint64(&e.lastUse); !found || use < oldest {
					vsg, vext, vblk, oldest, found = sg, ei, -1, use, true
				}
			}
			for bi := range sg.blocks {
				b := &sg.blocks[bi]
				if b.mapped {
					continue
				}
				if use := atomic.LoadUint64(&b.lastUse); !found || use < oldest {
					vsg, vext, vblk, oldest, found = sg, -1, bi, use, true
				}
			}
		}
		if !found {
			return nil // at the resident floor; nothing left to spill
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

// spill appends one unit's bytes to the spill file as a block of the given
// kind and maps it back, returning the payload that replaces the unit's
// heap copy. The heap copy is only dropped after the mapped bytes are in
// place, so failure leaves the unit resident and untouched.
func (sp *spillState) spill(kind byte, parts ...[]byte) ([]byte, error) {
	f, err := sp.file()
	if err != nil {
		return nil, err
	}
	off, err := f.append(kind, parts...)
	if err != nil {
		return nil, &SpillWriteError{Path: f.path, Err: err}
	}
	var plen int64
	for _, p := range parts {
		plen += int64(len(p))
	}
	return f.mapBlock(off, kind, plen)
}

// spillExtent moves one arena extent's items onto the spill file,
// re-pointing data at the shared mapping.
func (sp *spillState) spillExtent(e *arenaExtent) error {
	payload, err := sp.spill(snapKindArena, mapfile.Bytes(e.data))
	if err != nil {
		return err
	}
	e.data = mapfile.Cast[uint32](payload)
	e.mapped = true
	return nil
}

// spillBlock moves one CSR index block's starts+ids onto the spill file as a
// single payload, re-pointing both slices at the shared mapping.
func (sp *spillState) spillBlock(b *csrBlock) error {
	payload, err := sp.spill(snapKindIndex, mapfile.Bytes(b.starts), mapfile.Bytes(b.ids))
	if err != nil {
		return err
	}
	ns, ni := len(b.starts), len(b.ids)
	all := mapfile.Cast[int32](payload)
	b.starts = all[:ns:ns]
	b.ids = all[ns : ns+ni]
	b.mapped = true
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
	// 64-byte alignment padding included.
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
		st.Blocks = sp.f.blocks
	}
	if sp.err != nil {
		st.Err = sp.err.Error()
	}
	return st
}
