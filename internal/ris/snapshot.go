package ris

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// This file is the durable half of the RR-set store: a versioned on-disk
// snapshot format plus the atomic manifest protocol that commits it.
//
// A snapshot holds one in-process shard. It is a blockFile (blockfile.go):
// a meta block — seed, model, a reserved zero byte, the topology words
// (always one shard, not remote), the epoch table and the segment
// descriptor — followed by the segment's offset table, arena extents and
// CSR index blocks, in the order the meta declares them. Arena and index
// blocks are the very blocks a spill file holds, so recovery aliases them
// through mapBlock exactly as a spilled unit is aliased: a warm restart
// costs one sequential checksum pass, not a resample.
//
// Commit protocol: write snapshot-<gen>.rrsnap → fsync file → fsync dir →
// write manifest.json.tmp → fsync → rename over manifest.json → fsync dir.
// The manifest is the single commit point, so a crash at any instant leaves
// the directory describing either the previous or the new snapshot, never a
// torn one. Every write-side filesystem call goes through a SnapshotFS so
// tests can fail the Nth write, tear a block, flip bytes, or drop the
// rename and prove that invariant at every step.
//
// Integrity: every block carries a CRC32C over its payload. Recovery
// verifies eagerly (the Store read paths are error-free and concurrent, so
// in-band lazy repair would be unsound); a bad block degrades gracefully —
// the suffix of the stream from the first unrecoverable RR set onward is
// discarded and resampled deterministically from the (seed, i) streams,
// which reproduces it bit-identically.

// snapVersion is the snapshot format version (manifest and meta block).
const snapVersion = 1

const (
	manifestName = "manifest.json"
	snapSuffix   = ".rrsnap"
)

// ErrNoSnapshot reports that a state directory holds no committed snapshot
// (no manifest). Callers start cold; this is the expected first-boot path.
var ErrNoSnapshot = errors.New("ris: no snapshot")

// ErrSnapshotTopology reports a Persist on a store with several shards or
// remote shards: only a one-shard in-process store is persisted, and
// nothing was written.
var ErrSnapshotTopology = errors.New("ris: only a one-shard in-process store can be persisted")

// SnapshotMismatchError reports a committed snapshot that describes a
// different store than the one being recovered (other seed, graph or
// model), or a snapshot of a multi-shard or remote store that earlier
// builds wrote. Callers start cold and may keep or replace the snapshot.
type SnapshotMismatchError struct{ Reason string }

func (e *SnapshotMismatchError) Error() string {
	return "ris: snapshot mismatch: " + e.Reason
}

// SnapshotCorruptError reports a snapshot whose manifest or meta block is
// unusable — nothing can be restored from it. Per-payload corruption is NOT
// this error: bad arena or index blocks degrade gracefully into a suffix
// discard plus deterministic resample (see RecoveryInfo.Discarded).
type SnapshotCorruptError struct {
	Path   string
	Reason string
}

func (e *SnapshotCorruptError) Error() string {
	return fmt.Sprintf("ris: corrupt snapshot %s: %s", e.Path, e.Reason)
}

// SnapshotFile is the write handle SnapshotFS hands out. Sync must not
// return until the data is durable.
type SnapshotFile interface {
	io.Writer
	Sync() error
	Close() error
}

// SnapshotFS is the write-side filesystem seam of the snapshot protocol.
// Production uses OSSnapshotFS; crash-consistency tests inject
// implementations that fail the Nth write, tear a write mid-block, flip
// bytes, drop fsyncs or drop the rename, then simulate the crash.
type SnapshotFS interface {
	Create(name string) (SnapshotFile, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	// SyncDir makes a directory's entries durable (file creation, rename).
	SyncDir(dir string) error
}

type osSnapshotFS struct{}

func (osSnapshotFS) Create(name string) (SnapshotFile, error) { return os.Create(name) }
func (osSnapshotFS) Rename(oldname, newname string) error     { return os.Rename(oldname, newname) }
func (osSnapshotFS) Remove(name string) error                 { return os.Remove(name) }

func (osSnapshotFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync is best-effort: some platforms reject it, and the
	// protocol stays crash-consistent without it (only the commit latency
	// window widens).
	d.Sync()
	return d.Close()
}

// OSSnapshotFS is the production SnapshotFS backed by the os package.
var OSSnapshotFS SnapshotFS = osSnapshotFS{}

// SnapshotInfo describes one committed snapshot.
type SnapshotInfo struct {
	Generation uint64
	Path       string
	Bytes      int64
	Sets       int
}

// snapManifest is the committed pointer to the current snapshot. It is the
// single atomic commit point of the protocol: written to manifest.json.tmp,
// fsynced, then renamed over manifest.json.
type snapManifest struct {
	Version     int    `json:"version"`
	Generation  uint64 `json:"generation"`
	Snapshot    string `json:"snapshot"`
	Bytes       int64  `json:"bytes"`
	Sets        int    `json:"sets"`
	CreatedUnix int64  `json:"created_unix"`
}

func loadManifest(dir string) (snapManifest, error) {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return snapManifest{}, ErrNoSnapshot
	}
	if err != nil {
		return snapManifest{}, err
	}
	var man snapManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return snapManifest{}, &SnapshotCorruptError{Path: path, Reason: "manifest: " + err.Error()}
	}
	if man.Version != snapVersion || man.Snapshot == "" ||
		man.Snapshot != filepath.Base(man.Snapshot) {
		return snapManifest{}, &SnapshotCorruptError{Path: path, Reason: fmt.Sprintf("manifest version %d, snapshot %q", man.Version, man.Snapshot)}
	}
	return man, nil
}

// ReadSnapshotInfo reports the committed snapshot in dir without opening or
// verifying the snapshot file itself: the manifest's generation, path, size
// and RR-set count. ErrNoSnapshot when dir holds no committed manifest;
// *SnapshotCorruptError when the manifest itself is unreadable. Diagnostics
// (imstats) use this; recovery goes through Recover, which verifies.
func ReadSnapshotInfo(dir string) (SnapshotInfo, error) {
	man, err := loadManifest(dir)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return SnapshotInfo{
		Generation: man.Generation,
		Path:       filepath.Join(dir, man.Snapshot),
		Bytes:      man.Bytes,
		Sets:       man.Sets,
	}, nil
}

// storeMeta is everything the meta block carries besides the segment
// descriptor: the identity a recovery must match and the epoch table.
type storeMeta struct {
	seed     uint64
	model    uint8
	weighted bool
	whash    uint64
	scale    float64
	n        int
	length   int
	epochs   []genEpoch
}

// weightsHash fingerprints a WRIS weight vector so recovery can reject a
// snapshot taken under different benefits.
func weightsHash(ws []float64) uint64 {
	if len(ws) == 0 {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
		h.Write(b[:])
	}
	return h.Sum64()
}

func storeMetaOf(s *Sampler, seed uint64) storeMeta {
	return storeMeta{
		seed:     seed,
		model:    uint8(s.model),
		weighted: s.root != nil,
		whash:    weightsHash(s.weights),
		scale:    s.scale,
		n:        s.g.NumNodes(),
	}
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// persistExt is one arena range scheduled for persistence: the frozen
// extents in order, then the active tail as a final virtual extent. Together
// they tile the segment's sets [0, nsets).
type persistExt struct {
	setFrom, setTo int
	items          int64
	data           []uint32
}

func persistExtents(sg *segment) []persistExt {
	out := make([]persistExt, 0, len(sg.exts)+1)
	for i := range sg.exts {
		e := &sg.exts[i]
		out = append(out, persistExt{
			setFrom: e.setFrom, setTo: e.setTo,
			items: e.end - e.base, data: e.data[:e.end-e.base],
		})
	}
	if ns := sg.nsets(); ns > sg.tailSet {
		items := sg.offsets[ns] - sg.tailBase
		out = append(out, persistExt{
			setFrom: sg.tailSet, setTo: ns,
			items: items, data: sg.buf[:items],
		})
	}
	return out
}

// encodeSegMeta appends the segment's descriptor: set count, width, a zero
// byte (no gid table: one shard runs on identity ids), the arena extents and
// the CSR index blocks. Block payload lengths are all derivable from this,
// so recovery can locate every block in the file without trusting any
// payload.
func encodeSegMeta(w *wbuf, sg *segment) {
	ns := sg.nsets()
	w.u64(uint64(ns))
	w.i64(sg.width)
	w.u8(0)
	exts := persistExtents(sg)
	w.u32(uint32(len(exts)))
	for _, x := range exts {
		w.u64(uint64(x.setFrom))
		w.u64(uint64(x.setTo))
		w.i64(x.items)
	}
	w.u32(uint32(len(sg.blocks)))
	for i := range sg.blocks {
		b := &sg.blocks[i]
		w.u64(uint64(b.lfrom))
		w.u64(uint64(b.lto))
		w.u64(uint64(len(b.starts)))
		w.u64(uint64(len(b.ids)))
	}
}

// writeSegBlocks appends the segment's data blocks in the order its
// descriptor declares: offsets, arena extents, CSR index blocks. Append
// errors are sticky, so the caller checks bf.err once after the last block.
func writeSegBlocks(bf *blockFile, sg *segment) {
	bf.append(snapKindOffsets, rawBytes(sg.offsets[:sg.nsets()+1]))
	for _, x := range persistExtents(sg) {
		bf.append(snapKindArena, rawBytes(x.data))
	}
	for i := range sg.blocks {
		b := &sg.blocks[i]
		bf.append(snapKindIndex, rawBytes(b.starts), rawBytes(b.ids))
	}
}

// encodeStoreMeta encodes the meta block of a one-shard snapshot. The
// topology words and the per-epoch shard bounds are what earlier builds
// wrote for any shard count; at one shard they are fixed (bounds [from, to),
// base from), so the format is unchanged.
func encodeStoreMeta(m storeMeta, sg *segment) []byte {
	var w wbuf
	w.u32(snapVersion)
	w.u64(m.seed)
	w.u8(m.model)
	w.u8(0) // reserved; recovery treats any other value as a mismatch
	w.u8(b2u(m.weighted))
	w.u64(m.whash)
	w.f64(m.scale)
	w.u64(uint64(m.n))
	w.u64(uint64(m.length))
	w.u32(1) // shards
	w.u8(0)  // remote
	w.u32(uint32(len(m.epochs)))
	for i := range m.epochs {
		e := &m.epochs[i]
		w.u64(uint64(e.from))
		w.u64(uint64(e.to))
		w.u64(uint64(e.from)) // bounds
		w.u64(uint64(e.to))
		w.u64(uint64(e.from)) // base
	}
	w.u32(1) // segments
	encodeSegMeta(&w, sg)
	return w.b
}

// Persist writes a snapshot of the store into dir and commits it. Only a
// one-shard in-process store is persisted: any other topology returns
// ErrSnapshotTopology and writes nothing.
func (sc *ShardedCollection) Persist(dir string) (SnapshotInfo, error) {
	return sc.PersistFS(dir, OSSnapshotFS)
}

// PersistFS is Persist through an injected filesystem (fault tests).
func (sc *ShardedCollection) PersistFS(dir string, fs SnapshotFS) (SnapshotInfo, error) {
	if len(sc.segs) != 1 || sc.remotes != nil {
		return SnapshotInfo{}, ErrSnapshotTopology
	}
	m := storeMetaOf(sc.sampler, sc.seed)
	m.length = sc.length
	m.epochs = sc.epochs
	sg := sc.segs[0]
	return persistSnapshot(dir, fs, encodeStoreMeta(m, sg), sg, m.length)
}

// persistSnapshot runs the full snapshot protocol over an encoded meta
// block: write the meta block and the segment's data blocks, fsync the
// file, fsync the directory, then commit by atomic manifest replace. On any
// error the previous manifest — and therefore the previous snapshot — stays
// committed; partial files are swept by the next successful Persist or by
// CleanStateDir.
func persistSnapshot(dir string, fs SnapshotFS, meta []byte, sg *segment, sets int) (SnapshotInfo, error) {
	if fs == nil {
		fs = OSSnapshotFS
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return SnapshotInfo{}, fmt.Errorf("ris: snapshot dir: %w", err)
	}
	gen := uint64(1)
	if man, err := loadManifest(dir); err == nil {
		gen = man.Generation + 1
	}
	name := fmt.Sprintf("snapshot-%06d%s", gen, snapSuffix)
	path := filepath.Join(dir, name)
	f, err := fs.Create(path)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("ris: snapshot create %s: %w", path, err)
	}
	bf := &blockFile{path: path, w: f}
	bf.append(snapKindMeta, meta)
	writeSegBlocks(bf, sg)
	err = bf.err
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("ris: snapshot write %s: %w", path, err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return SnapshotInfo{}, fmt.Errorf("ris: snapshot sync %s: %w", dir, err)
	}
	man := snapManifest{
		Version: snapVersion, Generation: gen, Snapshot: name,
		Bytes: bf.size, Sets: sets, CreatedUnix: time.Now().Unix(),
	}
	if err := commitManifest(dir, fs, man); err != nil {
		return SnapshotInfo{}, err
	}
	// Best effort: a recovered store may still be mapping an older snapshot
	// (unlink-while-mapped is fine on unix; elsewhere the remove fails and
	// the next sweep retries).
	sweepDir(dir, fs.Remove, snapshotDebris(name))
	return SnapshotInfo{Generation: gen, Path: path, Bytes: bf.size, Sets: sets}, nil
}

// commitManifest atomically replaces the committed manifest: write tmp,
// fsync, rename over the real name, fsync the directory. A crash before the
// rename leaves the old manifest; after it, the new one. Never a torn state.
func commitManifest(dir string, fs SnapshotFS, man snapManifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("ris: manifest create: %w", err)
	}
	werr := func() error {
		if _, err := f.Write(append(data, '\n')); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("ris: manifest write: %w", werr)
	}
	if err := fs.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("ris: manifest commit: %w", err)
	}
	return fs.SyncDir(dir)
}

// sweepDir removes, through remove, every file of dir that match accepts,
// and returns the names removed. A missing dir is not an error.
func sweepDir(dir string, remove func(string) error, match func(string) bool) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, ent := range ents {
		name := ent.Name()
		if !ent.IsDir() && match(name) && remove(filepath.Join(dir, name)) == nil {
			removed = append(removed, name)
		}
	}
	return removed, nil
}

// snapshotDebris matches the files of a state directory that the snapshot
// keep does not need: *.tmp files from an interrupted manifest commit and
// every other snapshot file.
func snapshotDebris(keep string) func(string) bool {
	return func(name string) bool {
		return name != keep && (strings.HasSuffix(name, ".tmp") ||
			strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, snapSuffix))
	}
}

// CleanStateDir removes crash leftovers from a snapshot state directory:
// *.tmp files from an interrupted manifest commit and snapshot files not
// referenced by the committed manifest. Run at startup, before Recover.
// Returns the removed file names.
func CleanStateDir(dir string) ([]string, error) {
	keep := ""
	if man, err := loadManifest(dir); err == nil {
		keep = man.Snapshot
	}
	return sweepDir(dir, os.Remove, snapshotDebris(keep))
}

// CleanSpillDir removes leftover spill files from a spill directory. Live
// spill files are unlinked at creation wherever the OS allows it, so
// anything still visible is a leftover from a crash on a platform without
// anonymous unlink. Returns the removed file names.
func CleanSpillDir(dir string) ([]string, error) {
	return sweepDir(dir, os.Remove, func(name string) bool {
		return strings.HasPrefix(name, "rrspill-") && strings.HasSuffix(name, ".spill")
	})
}
