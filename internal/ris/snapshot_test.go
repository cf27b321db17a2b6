package ris

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

// crashFS is the fault-injecting SnapshotFS: it performs real filesystem
// operations while tracking, per file, how many bytes are durable (synced),
// and can inject a failed write, a torn write, a silent bit flip, dropped
// fsyncs or a dropped rename. Crash() then simulates the machine dying by
// truncating every file to its durable prefix. Renaming an unsynced file
// flushes it first (the replace-via-rename heuristic of real filesystems).
type crashFS struct {
	failAt   int // 1-based global write index to fail outright
	tornAt   int // 1-based write index to half-write then fail
	flipAt   int // 1-based write index to corrupt silently
	dropSync bool
	dropRen  bool
	writes   int
	files    []*crashFile
}

type crashFile struct {
	fs      *crashFS
	f       *os.File
	path    string
	written int64
	synced  int64
}

func (fs *crashFS) Create(name string) (SnapshotFile, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	cf := &crashFile{fs: fs, f: f, path: name}
	fs.files = append(fs.files, cf)
	return cf, nil
}

func (cf *crashFile) Write(p []byte) (int, error) {
	fs := cf.fs
	fs.writes++
	switch fs.writes {
	case fs.failAt:
		return 0, errors.New("injected write failure")
	case fs.tornAt:
		n, _ := cf.f.Write(p[:len(p)/2])
		cf.written += int64(n)
		return n, errors.New("injected torn write")
	case fs.flipAt:
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 0x20
		n, err := cf.f.Write(q)
		cf.written += int64(n)
		return n, err
	}
	n, err := cf.f.Write(p)
	cf.written += int64(n)
	return n, err
}

func (cf *crashFile) Sync() error {
	if cf.fs.dropSync {
		return nil
	}
	if err := cf.f.Sync(); err != nil {
		return err
	}
	cf.synced = cf.written
	return nil
}

func (cf *crashFile) Close() error { return cf.f.Close() }

func (fs *crashFS) Rename(oldname, newname string) error {
	if fs.dropRen {
		return errors.New("injected rename failure")
	}
	if err := os.Rename(oldname, newname); err != nil {
		return err
	}
	for _, cf := range fs.files {
		if cf.path == oldname {
			cf.path = newname
			cf.synced = cf.written
		}
	}
	return nil
}

func (fs *crashFS) Remove(name string) error { return os.Remove(name) }
func (fs *crashFS) SyncDir(string) error     { return nil }

// Crash simulates the process and machine dying: every byte past a file's
// durable prefix is lost.
func (fs *crashFS) Crash() {
	for _, cf := range fs.files {
		os.Truncate(cf.path, cf.synced)
	}
}

func snapTestSampler(t testing.TB) *Sampler {
	t.Helper()
	g, err := gen.ChungLu(120, 700, 2.1, 5, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	return mustSampler(t, g, diffusion.IC)
}

func growPattern(st Store) {
	for _, c := range []int{1, 3, 40, 2, 90, 17} {
		st.GenerateTo(st.Len() + c)
	}
}

func snapOpt(shards int) StoreOptions {
	return StoreOptions{Workers: 2 * max(shards, 1), Shards: shards} // two workers per shard
}

// Byte offsets of the meta words the tests patch.
const (
	metaKernelByte = 4 + 8 + 1                          // after version u32, seed u64, model u8
	metaLengthWord = metaKernelByte + 1 + 1 + 8 + 8 + 8 // after reserved, weighted, whash, scale, n
	metaShardsWord = metaLengthWord + 8
	metaEpochs     = metaShardsWord + 4 + 1 + 4 // after shards u32, remote u8, epoch count u32
	metaEpochSize  = 5 * 8                      // from, to, bounds[0], bounds[1], base
)

// storeMetaBytes encodes sc's meta block as Persist writes it.
func storeMetaBytes(sc *ShardedCollection) []byte {
	m := storeMetaOf(sc.sampler, sc.seed)
	m.length, m.epochs = sc.length, sc.epochs
	inIdx, _, _ := sc.sampler.g.ReverseCSR()
	return encodeStoreMeta(m, sc.segs[0], inIdx)
}

// overclaimMeta is sc's meta block claiming length sets: the length word
// and the last epoch's end and upper bound are patched, so the epochs still
// tile [0, length) but the segment holds only sc.Len() sets.
func overclaimMeta(sc *ShardedCollection, length int) []byte {
	meta := storeMetaBytes(sc)
	last := metaEpochs + metaEpochSize*(len(sc.epochs)-1)
	for _, off := range []int{metaLengthWord, last + 8, last + 24} {
		binary.LittleEndian.PutUint64(meta[off:], uint64(length))
	}
	return meta
}

// snapBlockPos locates every block of a committed snapshot file by walking
// the headers — the external-corruption tests patch payload bytes in place.
type snapBlockPos struct {
	off, plen int64
	kind      byte
}

func snapBlockTable(t *testing.T, path string) []snapBlockPos {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []snapBlockPos
	off := int64(0)
	for off+blockHdrSize <= int64(len(data)) {
		hdr := data[off:]
		if binary.LittleEndian.Uint32(hdr[0:]) != snapMagic {
			t.Fatalf("bad magic at offset %d", off)
		}
		plen := int64(binary.LittleEndian.Uint64(hdr[8:]))
		out = append(out, snapBlockPos{off: off, plen: plen, kind: hdr[4]})
		off = nextBlock(off, plen)
	}
	return out
}

func flipFileByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRoundTrip is the recovery-exactness leg: persist an
// irregularly grown (and partially spilled) store, recover it, and require
// every observable bit-identical to the reference stream — then grow both
// and require identity to hold across post-recovery growth and a second
// persist/recover generation.
func TestSnapshotRoundTrip(t *testing.T) {
	s := snapTestSampler(t)
	for _, shards := range []int{0, 1} {
		ctx := fmt.Sprintf("shards=%d", shards)
		dir := t.TempDir()
		opt := snapOpt(shards)

		ref := NewRefStore(s, 42)
		growPattern(ref)
		st := NewStore(s, 42, opt)
		growPattern(st)

		info, err := st.Persist(dir)
		if err != nil {
			t.Fatalf("%s: persist: %v", ctx, err)
		}
		if info.Sets != st.Len() || info.Bytes <= 0 || info.Generation != 1 {
			t.Fatalf("%s: info %+v for %d sets", ctx, info, st.Len())
		}

		rec, rinfo, err := Recover(s, 42, opt, dir)
		if err != nil {
			t.Fatalf("%s: recover: %v", ctx, err)
		}
		if rinfo.Discarded != 0 || rinfo.Sets != ref.Len() || rinfo.RebuiltIndexBlocks != 0 {
			t.Fatalf("%s: recovery info %+v, want clean %d sets", ctx, rinfo, ref.Len())
		}
		AssertStoresEqual(t, ctx+"/recovered", ref, rec)

		// Growth on top of recovered state stays bit-identical.
		ref.GenerateTo(ref.Len() + 60)
		rec.GenerateTo(rec.Len() + 60)
		AssertStoresEqual(t, ctx+"/regrown", ref, rec)

		// Second generation: persist the recovered store, recover again.
		info2, err := rec.Persist(dir)
		if err != nil {
			t.Fatalf("%s: re-persist: %v", ctx, err)
		}
		if info2.Generation != 2 {
			t.Fatalf("%s: generation %d, want 2", ctx, info2.Generation)
		}
		rec2, _, err := Recover(s, 42, opt, dir)
		if err != nil {
			t.Fatalf("%s: re-recover: %v", ctx, err)
		}
		AssertStoresEqual(t, ctx+"/gen2", ref, rec2)

		// The superseded generation was swept.
		ents, _ := os.ReadDir(dir)
		snaps := 0
		for _, e := range ents {
			if filepath.Ext(e.Name()) == snapSuffix {
				snaps++
			}
		}
		if snaps != 1 {
			t.Fatalf("%s: %d snapshot files after re-persist, want 1", ctx, snaps)
		}
	}

	// Shards 0 and 1 are one configuration: a state dir written under either
	// recovers cleanly under the other.
	for _, p := range [][2]int{{0, 1}, {1, 0}} {
		ctx := fmt.Sprintf("persist shards=%d, recover shards=%d", p[0], p[1])
		dir := t.TempDir()
		st := NewStore(s, 42, snapOpt(p[0]))
		growPattern(st)
		if _, err := st.Persist(dir); err != nil {
			t.Fatalf("%s: persist: %v", ctx, err)
		}
		rec, rinfo, err := Recover(s, 42, snapOpt(p[1]), dir)
		if err != nil {
			t.Fatalf("%s: recover: %v", ctx, err)
		}
		if rinfo.Discarded != 0 || rinfo.RebuiltIndexBlocks != 0 {
			t.Fatalf("%s: recovery info %+v, want clean", ctx, rinfo)
		}
		AssertStoresEqual(t, ctx, refStream(s, 42, st.Len()), rec)
	}
}

// TestSnapshotSpilledRoundTrip persists a store whose extents and index
// blocks live on the spill file and recovers it without a spill tier: the
// snapshot is self-contained regardless of where payloads were resident.
func TestSnapshotSpilledRoundTrip(t *testing.T) {
	s := snapTestSampler(t)
	ref := NewRefStore(s, 7)
	growPattern(ref)

	st := spilledStore(t, s, 7, 0, 1)
	growPattern(st)
	if err := st.SpillTo(0); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := st.Persist(dir); err != nil {
		t.Fatal(err)
	}
	rec, rinfo, err := Recover(s, 7, snapOpt(0), dir)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Discarded != 0 {
		t.Fatalf("recovery info %+v, want clean", rinfo)
	}
	AssertStoresEqual(t, "spilled", ref, rec)

	// And the inverse: recover INTO a spill-enabled store and keep growing.
	recSp, _, err := Recover(s, 7, StoreOptions{
		Workers: 2, SpillBudgetBytes: 1, SpillDir: t.TempDir(),
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	ref.GenerateTo(ref.Len() + 80)
	recSp.GenerateTo(recSp.Len() + 80)
	AssertStoresEqual(t, "spilled-recover-spill", ref, recSp)
}

// TestSnapshotEmptyStore pins the degenerate shape: persisting an empty
// store round-trips, and the recovered store grows bit-identically.
func TestSnapshotEmptyStore(t *testing.T) {
	s := snapTestSampler(t)
	dir := t.TempDir()
	st := NewStore(s, 9, snapOpt(0))
	if _, err := st.Persist(dir); err != nil {
		t.Fatal(err)
	}
	rec, rinfo, err := Recover(s, 9, snapOpt(0), dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 0 || rinfo.Sets != 0 {
		t.Fatalf("recovered %d sets from empty snapshot", rec.Len())
	}
	ref := refStream(s, 9, 50)
	rec.GenerateTo(50)
	AssertStoresEqual(t, "empty", ref, rec)
}

// TestSnapshotMismatch covers the refuse-to-recover paths: no snapshot,
// wrong seed, wrong topology, wrong model — all typed, nothing torn.
func TestSnapshotMismatch(t *testing.T) {
	s := snapTestSampler(t)
	if _, _, err := Recover(s, 42, snapOpt(0), t.TempDir()); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: %v, want ErrNoSnapshot", err)
	}

	dir := t.TempDir()
	st := NewStore(s, 42, snapOpt(0))
	st.GenerateTo(40)
	if _, err := st.Persist(dir); err != nil {
		t.Fatal(err)
	}
	var mm *SnapshotMismatchError
	if _, _, err := Recover(s, 43, snapOpt(0), dir); !errors.As(err, &mm) {
		t.Fatalf("wrong seed: %v, want SnapshotMismatchError", err)
	}
	if _, _, err := Recover(s, 42, snapOpt(2), dir); !errors.As(err, &mm) {
		t.Fatalf("wrong topology: %v, want SnapshotMismatchError", err)
	}
	lt := mustSampler(t, s.Graph(), diffusion.LT)
	if _, _, err := Recover(lt, 42, snapOpt(0), dir); !errors.As(err, &mm) {
		t.Fatalf("wrong model: %v, want SnapshotMismatchError", err)
	}

	// A meta block with shards == 0 is what the retired flat store wrote: a
	// topology this build cannot hold, reported like any other topology
	// change.
	sc := st.(*ShardedCollection)
	flat := storeMetaBytes(sc)
	binary.LittleEndian.PutUint32(flat[metaShardsWord:], 0)
	flatDir := t.TempDir()
	if _, err := persistSnapshot(flatDir, OSSnapshotFS, flat, sc.segs[0], sc.length); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(s, 42, snapOpt(0), flatDir); !errors.As(err, &mm) {
		t.Fatalf("shards == 0 meta: %v, want SnapshotMismatchError", err)
	}

	// The byte after the model once selected between two samplers and is
	// now always written 0. A non-zero byte names another RR stream, so the
	// snapshot is refused as a mismatch (the caller starts cold), never
	// reused.
	meta := storeMetaBytes(sc)
	if meta[metaKernelByte] != 0 {
		t.Fatalf("kernel byte written as %d, want 0", meta[metaKernelByte])
	}
	for _, kb := range []byte{0, 1} {
		kdir := t.TempDir()
		meta[metaKernelByte] = kb
		if _, err := persistSnapshot(kdir, OSSnapshotFS, meta, sc.segs[0], sc.length); err != nil {
			t.Fatal(err)
		}
		_, _, err := Recover(s, 42, snapOpt(0), kdir)
		if kb == 0 && err != nil {
			t.Fatalf("kernel byte 0: %v", err)
		}
		if kb != 0 && !errors.As(err, &mm) {
			t.Fatalf("kernel byte %d: %v, want SnapshotMismatchError", kb, err)
		}
	}

	// A mangled manifest is corrupt, not torn.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *SnapshotCorruptError
	if _, _, err := Recover(s, 42, snapOpt(0), dir); !errors.As(err, &ce) {
		t.Fatalf("mangled manifest: %v, want SnapshotCorruptError", err)
	}
}

// TestSnapshotCorruptBlock is the graceful-degradation leg: flip a payload
// byte in an arena block of a committed snapshot and recovery must discard
// exactly the unrecoverable suffix and resample it deterministically —
// observables end up bit-identical to the reference stream. A corrupt CSR
// index block alone loses nothing (rebuilt from the arena), and a corrupt
// offsets table discards the whole segment's stream suffix.
func TestSnapshotCorruptBlock(t *testing.T) {
	s := snapTestSampler(t)
	opt := snapOpt(0)
	ref := NewRefStore(s, 11)
	growPattern(ref)

	// Spill mid-life so the snapshot holds several arena blocks and a
	// corrupt one leaves a nonempty good prefix.
	persist := func() (string, string) {
		t.Helper()
		st := spilledStore(t, s, 11, 0, 1)
		growPattern(st)
		dir := t.TempDir()
		info, err := st.Persist(dir)
		if err != nil {
			t.Fatal(err)
		}
		return dir, info.Path
	}

	// Arena corruption: suffix discard + deterministic resample.
	dir, path := persist()
	var arenas []snapBlockPos
	for _, b := range snapBlockTable(t, path) {
		if b.kind == snapKindArena && b.plen > 0 {
			arenas = append(arenas, b)
		}
	}
	if len(arenas) < 2 {
		t.Fatalf("%d arena blocks, need >= 2", len(arenas))
	}
	last := arenas[len(arenas)-1]
	flipFileByte(t, path, last.off+blockHdrSize+last.plen/2)
	rec, rinfo, err := Recover(s, 11, opt, dir)
	if err != nil {
		t.Fatalf("recover with corrupt arena: %v", err)
	}
	if rinfo.Discarded == 0 || rinfo.Discarded >= ref.Len() || rinfo.Sets != ref.Len() {
		t.Fatalf("recovery info %+v, want partial discard+resample of %d sets", rinfo, ref.Len())
	}
	AssertStoresEqual(t, "corrupt-arena", ref, rec)

	// Index corruption: rebuilt from the arena, nothing discarded.
	dir, path = persist()
	var idx []snapBlockPos
	for _, b := range snapBlockTable(t, path) {
		if b.kind == snapKindIndex {
			idx = append(idx, b)
		}
	}
	if len(idx) == 0 {
		t.Fatal("no index blocks persisted")
	}
	flipFileByte(t, path, idx[0].off+blockHdrSize+idx[0].plen/2)
	rec, rinfo, err = Recover(s, 11, opt, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Discarded != 0 || rinfo.RebuiltIndexBlocks == 0 {
		t.Fatalf("recovery info %+v, want 0 discarded and a rebuilt index", rinfo)
	}
	AssertStoresEqual(t, "corrupt-index", ref, rec)

	// Offsets corruption: the whole stream gone, fully resampled.
	dir, path = persist()
	for _, b := range snapBlockTable(t, path) {
		if b.kind == snapKindOffsets {
			flipFileByte(t, path, b.off+blockHdrSize+b.plen/2)
			break
		}
	}
	rec, rinfo, err = Recover(s, 11, opt, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Discarded != ref.Len() || rec.Len() != ref.Len() {
		t.Fatalf("recovery info %+v, want full discard and resample to %d", rinfo, ref.Len())
	}
	AssertStoresEqual(t, "corrupt-offsets", ref, rec)
}

// TestRecoverOverclaimedLength persists 100 sets under a CRC-valid meta
// that claims 200 in one epoch [0, 200). The meta contradicts its own
// segment, so Recover must answer *SnapshotCorruptError rather than slice
// the offset table past its end.
func TestRecoverOverclaimedLength(t *testing.T) {
	s := snapTestSampler(t)
	sc := NewStore(s, 42, snapOpt(0)).(*ShardedCollection)
	sc.GenerateTo(100)
	dir := t.TempDir()
	if _, err := persistSnapshot(dir, OSSnapshotFS, overclaimMeta(sc, 200), sc.segs[0], 100); err != nil {
		t.Fatal(err)
	}
	var ce *SnapshotCorruptError
	if _, _, err := Recover(s, 42, snapOpt(0), dir); !errors.As(err, &ce) {
		t.Fatalf("recover: %v, want *SnapshotCorruptError", err)
	}
}

// TestSnapshotOneShardTopology pins that only a one-shard in-process store
// is persisted or recovered: a 3-shard store and a remote store return
// ErrSnapshotTopology from Persist and leave no state directory behind, and
// Recover under either topology's options refuses a good one-shard
// snapshot as a mismatch.
func TestSnapshotOneShardTopology(t *testing.T) {
	s := snapTestSampler(t)
	remoteOpt := StoreOptions{
		RemoteWorkers: []string{"w0"},
		RemoteDial:    func(string) (net.Conn, error) { return nil, errors.New("no workers in this test") },
	}
	sharded := NewStore(s, 42, snapOpt(3))
	sharded.GenerateTo(40)
	remote := NewStore(s, 42, remoteOpt)
	for name, st := range map[string]Store{"shards=3": sharded, "remote": remote} {
		dir := filepath.Join(t.TempDir(), "state")
		if _, err := st.Persist(dir); !errors.Is(err, ErrSnapshotTopology) {
			t.Fatalf("%s: persist: %v, want ErrSnapshotTopology", name, err)
		}
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: persist left %s behind (%v)", name, dir, err)
		}
	}

	dir := t.TempDir()
	one := NewStore(s, 42, snapOpt(0))
	one.GenerateTo(40)
	if _, err := one.Persist(dir); err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]StoreOptions{"shards=3": snapOpt(3), "remote": remoteOpt} {
		var mm *SnapshotMismatchError
		if _, _, err := Recover(s, 42, opt, dir); !errors.As(err, &mm) {
			t.Fatalf("%s: recover: %v, want *SnapshotMismatchError", name, err)
		}
	}
}

// TestSnapshotCrashFaults enumerates every fault point of the snapshot
// protocol — each individual write failed or torn, the rename dropped, every
// fsync dropped before a crash — and requires recovery to land on exactly
// the previous or the new complete state, never a torn one.
func TestSnapshotCrashFaults(t *testing.T) {
	s := snapTestSampler(t)
	opt := snapOpt(0)

	build := func(extra int) Store {
		st := NewStore(s, 42, opt)
		growPattern(st)
		if extra > 0 {
			st.GenerateTo(st.Len() + extra)
		}
		return st
	}
	stateA := build(0)
	lenA := stateA.Len()
	stateB := build(150)
	lenB := stateB.Len()

	// Probe a clean persist of state B to count protocol writes.
	probe := &crashFS{}
	if _, err := stateB.PersistFS(t.TempDir(), probe); err != nil {
		t.Fatal(err)
	}
	writes := probe.writes
	if writes < 6 {
		t.Fatalf("probe counted %d writes", writes)
	}

	check := func(name, dir string, wantLens ...int) {
		t.Helper()
		if _, err := CleanStateDir(dir); err != nil {
			t.Fatal(err)
		}
		rec, rinfo, err := Recover(s, 42, opt, dir)
		if err != nil {
			t.Fatalf("%s: recover: %v", name, err)
		}
		if !slices.Contains(wantLens, rinfo.Sets) {
			t.Fatalf("%s: recovered %d sets (info %+v), want one of %v", name, rinfo.Sets, rinfo, wantLens)
		}
		AssertStoresEqual(t, name, refStream(s, 42, rec.Len()), rec)
	}

	for k := 1; k <= writes; k++ {
		for _, torn := range []bool{false, true} {
			name := map[bool]string{false: "fail", true: "torn"}[torn]
			dir := t.TempDir()
			if _, err := stateA.Persist(dir); err != nil {
				t.Fatal(err)
			}
			fs := &crashFS{}
			if torn {
				fs.tornAt = k
			} else {
				fs.failAt = k
			}
			if _, err := stateB.PersistFS(dir, fs); err == nil {
				t.Fatalf("%s@%d: persist succeeded despite injection", name, k)
			}
			fs.Crash()
			// Every write precedes the manifest commit, so the previous
			// state must survive intact.
			check(name+"@write", dir, lenA)
		}
	}

	// Dropped rename: the new snapshot is fully written but never committed.
	dir := t.TempDir()
	if _, err := stateA.Persist(dir); err != nil {
		t.Fatal(err)
	}
	fs := &crashFS{dropRen: true}
	if _, err := stateB.PersistFS(dir, fs); err == nil {
		t.Fatal("persist succeeded despite dropped rename")
	}
	fs.Crash()
	check("dropped-rename", dir, lenA)

	// Dropped fsyncs with a crash before the rename: nothing new is durable.
	dir = t.TempDir()
	if _, err := stateA.Persist(dir); err != nil {
		t.Fatal(err)
	}
	fs = &crashFS{dropSync: true, dropRen: true}
	if _, err := stateB.PersistFS(dir, fs); err == nil {
		t.Fatal("persist succeeded despite dropped rename")
	}
	fs.Crash()
	check("dropped-fsync-and-rename", dir, lenA)

	// Dropped fsyncs but the commit "succeeds" before the crash (a lying
	// disk): the manifest survives via replace-via-rename but the snapshot
	// payload is lost, so its blocks fail validation and recovery resamples
	// the discarded suffix — landing on the new state.
	dir = t.TempDir()
	if _, err := stateA.Persist(dir); err != nil {
		t.Fatal(err)
	}
	fs = &crashFS{dropSync: true}
	if _, err := stateB.PersistFS(dir, fs); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	rec, rinfo, err := Recover(s, 42, opt, dir)
	if err != nil {
		// The snapshot file may be truncated below even its meta block;
		// that is a typed corrupt error and a cold start, never torn state.
		var ce *SnapshotCorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("lying-fsync recover: %v", err)
		}
	} else {
		if rinfo.Sets != lenB {
			t.Fatalf("lying-fsync recovered %d sets, want %d (info %+v)", rinfo.Sets, lenB, rinfo)
		}
		AssertStoresEqual(t, "lying-fsync", stateB, rec)
	}

	// Silent bit flips on every write of the snapshot payload: recovery must
	// either land on the complete new state (resampling whatever the flip
	// destroyed) or reject the snapshot with a typed corrupt error (flips
	// inside the meta block or manifest); at least one flip must exercise
	// the discard+resample path.
	resampled := 0
	for k := 1; k <= writes; k++ {
		dir := t.TempDir()
		fs := &crashFS{flipAt: k}
		if _, err := stateB.PersistFS(dir, fs); err != nil {
			t.Fatalf("flip@%d: persist: %v", k, err)
		}
		rec, rinfo, err := Recover(s, 42, opt, dir)
		if err != nil {
			var ce *SnapshotCorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("flip@%d: %v, want SnapshotCorruptError or success", k, err)
			}
			continue
		}
		if rinfo.Sets != lenB {
			t.Fatalf("flip@%d: recovered %d sets, want %d", k, rinfo.Sets, lenB)
		}
		if rinfo.Discarded > 0 {
			resampled++
		}
		AssertStoresEqual(t, "flip", stateB, rec)
	}
	if resampled == 0 {
		t.Fatal("no flip exercised the discard+resample path")
	}
}

// TestCleanStateDir seeds a dirty directory — stale tmp files and an
// unreferenced snapshot next to a committed one — and checks startup cleanup
// removes exactly the leftovers.
func TestCleanStateDir(t *testing.T) {
	s := snapTestSampler(t)
	dir := t.TempDir()
	st := NewStore(s, 42, snapOpt(0))
	st.GenerateTo(30)
	if _, err := st.Persist(dir); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"manifest.json.tmp", "snapshot-000099.rrsnap", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := CleanStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(removed)
	if !slices.Equal(removed, []string{"manifest.json.tmp", "snapshot-000099.rrsnap"}) {
		t.Fatalf("removed %v", removed)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatal("cleanup removed an unrelated file")
	}
	if _, _, err := Recover(s, 42, snapOpt(0), dir); err != nil {
		t.Fatalf("recover after cleanup: %v", err)
	}

	// Cleaning a directory that does not exist is a quiet no-op.
	if removed, err := CleanStateDir(filepath.Join(dir, "missing")); err != nil || removed != nil {
		t.Fatalf("missing dir: %v %v", removed, err)
	}
}

// TestCleanSpillDir seeds leftover spill files (a crash on a platform
// without anonymous unlink) and checks only those are removed.
func TestCleanSpillDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"rrspill-123.spill", "rrspill-9.spill", "keep.spill", "rrspill-x.other"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := CleanSpillDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(removed)
	if !slices.Equal(removed, []string{"rrspill-123.spill", "rrspill-9.spill"}) {
		t.Fatalf("removed %v", removed)
	}
}

// TestSpillPayloadBitFlip pins the live spill tier's checksum: a silent
// payload flip — header intact — surfaces as ErrBadSpill at map time.
func TestSpillPayloadBitFlip(t *testing.T) {
	sf, err := newSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sf.close()
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var offs []int64
	for i := 0; i < 2; i++ {
		off, err := sf.append(snapKindArena, payload)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	if _, err := sf.f.WriteAt([]byte{payload[500] ^ 1}, offs[0]+blockHdrSize+500); err != nil {
		t.Fatal(err)
	}
	plen := int64(len(payload))
	if _, err := sf.mapBlock(offs[0], snapKindArena, plen); !errors.Is(err, ErrBadSpill) {
		t.Fatalf("flipped payload: %v, want ErrBadSpill", err)
	}
	if got, err := sf.mapBlock(offs[1], snapKindArena, plen); err != nil || !slices.Equal(got, payload) {
		t.Fatalf("intact block: %v", err)
	}
}

// TestPostingsOutliveStore pins that a Postings iterator keeps alive the
// mappings it reads: once the store it came from is unreachable, the block
// file's finalizer must not unmap the index pages the iterator still walks.
// One leg recovers the store from a snapshot, one spills it to disk.
func TestPostingsOutliveStore(t *testing.T) {
	s := snapTestSampler(t)
	ref := NewRefStore(s, 7)
	growPattern(ref)
	dir := t.TempDir()
	st := NewStore(s, 7, snapOpt(0))
	growPattern(st)
	if _, err := st.Persist(dir); err != nil {
		t.Fatal(err)
	}
	spillDir := t.TempDir()
	legs := map[string]func() []Postings{
		"recovered": func() []Postings {
			rec, _, err := Recover(s, 7, snapOpt(0), dir)
			if err != nil {
				t.Fatal(err)
			}
			return allPostings(rec)
		},
		"spilled": func() []Postings {
			sp := NewStore(s, 7, StoreOptions{Workers: 2, SpillBudgetBytes: 1, SpillDir: spillDir})
			growPattern(sp)
			if err := sp.SpillTo(0); err != nil {
				t.Fatal(err)
			}
			return allPostings(sp)
		},
	}
	for name, open := range legs {
		its := open()
		for i := 0; i < 5; i++ {
			runtime.GC()
		}
		for v := range its {
			var got []int32
			for run, ok := its[v].Next(); ok; run, ok = its[v].Next() {
				got = append(got, run...)
			}
			slices.Sort(got)
			if want := gatherPostings(ref, uint32(v), 0, ref.Len()); !slices.Equal(got, want) {
				t.Fatalf("%s: node %d postings %v, want %v", name, v, got, want)
			}
		}
	}
}

// allPostings returns an iterator over every node's postings in st, and
// nothing else that references st.
func allPostings(st Store) []Postings {
	its := make([]Postings, st.NumNodes())
	for v := range its {
		its[v] = st.PostingsRange(uint32(v), 0, st.Len())
	}
	return its
}
