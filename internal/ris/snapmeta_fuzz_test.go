package ris

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// allocDuring reports the bytes fn allocated (runtime-wide, so callers keep
// the rest of the process quiet while measuring).
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// typedMetaError reports whether err is one of the two errors the meta
// decoder may return.
func typedMetaError(err error) bool {
	var ce *SnapshotCorruptError
	var me *SnapshotMismatchError
	return errors.As(err, &ce) || errors.As(err, &me)
}

// TestSnapshotMetaBoundedAlloc decodes a tiny one-shard meta payload that
// declares 2^30 epochs: it must fail as corrupt before allocating the
// epoch table.
func TestSnapshotMetaBoundedAlloc(t *testing.T) {
	var store wbuf // 56 bytes declaring 2^30 epochs over one shard
	store.u32(snapVersion)
	store.u64(1)  // seed
	store.u8(0)   // model
	store.u8(0)   // reserved
	store.u8(0)   // weighted
	store.u64(0)  // weights hash
	store.f64(1)  // scale
	store.u64(10) // n
	store.u64(0)  // length
	store.u32(1)  // shards
	store.u8(0)   // remote
	store.u32(1 << 30)

	var err error
	got := allocDuring(func() { _, err = decodeStoreMeta(store.b, "store") })
	var ce *SnapshotCorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("store meta: %v, want *SnapshotCorruptError", err)
	}
	if got >= 64<<10 {
		t.Fatalf("store meta: a %d-byte payload allocated %d bytes", len(store.b), got)
	}
}

// readCorpusBytes reads a one-value []byte entry of a fuzz corpus file.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, val, ok := strings.Cut(strings.TrimSpace(string(data)), "\n[]byte(")
	if !ok || !strings.HasSuffix(val, ")") {
		t.Fatalf("%s: not a []byte corpus entry", path)
	}
	b, err := strconv.Unquote(strings.TrimSuffix(val, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(b)
}

// TestSnapshotMetaForeignTopology decodes the corpus metas of a 3-shard and
// a remote store, as earlier builds wrote them: both are a mismatch (the
// caller starts cold), not a corrupt file.
func TestSnapshotMetaForeignTopology(t *testing.T) {
	for _, name := range []string{"seed-store-3shards", "seed-store-remote"} {
		payload := readCorpusBytes(t, filepath.Join("testdata", "fuzz", "FuzzSnapshotMeta", name))
		var mm *SnapshotMismatchError
		if _, err := decodeStoreMeta(payload, name); !errors.As(err, &mm) {
			t.Fatalf("%s: %v, want *SnapshotMismatchError", name, err)
		}
	}
}

// FuzzSnapshotMeta runs arbitrary bytes through the store meta-block
// decoder. It must return a meta or a typed snapshot error, never panic,
// and allocate at most a constant times the payload length. The seed
// corpus (testdata/fuzz/FuzzSnapshotMeta) holds real encodeStoreMeta
// payloads over snapTestSampler's graph — one shard, spilled segments, and
// the three-shard and remote metas earlier builds wrote — plus the
// seed-worker-* payloads of the retired worker shard-state snapshots, kept
// as foreign inputs to the store decoder.
func FuzzSnapshotMeta(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var err error
		got := allocDuring(func() { _, err = decodeStoreMeta(payload, "fuzz") })
		if err != nil && !typedMetaError(err) {
			t.Fatalf("store meta: untyped error %v", err)
		}
		if limit := 64*uint64(len(payload)) + 64<<10; got > limit {
			t.Fatalf("a %d-byte payload allocated %d bytes (limit %d)", len(payload), got, limit)
		}
	})
}

// FuzzRecoverMeta recovers snapshots whose meta block is the fuzz payload
// (its CRC computed afresh) followed by the real data blocks of a small
// spilled one-shard store. Recover must return a typed snapshot error or a
// store equal to the reference stream's prefix of the same length, and must
// never panic. Seeds: the real meta, and one claiming twice the sets its
// segment holds.
//
// The one meta value Recover takes on trust is the segment's width
// (Σ in-degree over every item): checking it costs a pass over the recovered
// data, several times the recovery itself. So a clean recovery must report
// exactly the declared width, and every other observable must match the
// reference.
func FuzzRecoverMeta(f *testing.F) {
	const seed = 5
	s := snapTestSampler(f)
	sc := NewStore(s, seed, StoreOptions{Workers: 2, SpillBudgetBytes: 1, SpillDir: f.TempDir()}).(*ShardedCollection)
	for _, c := range []int{40, 3, 90} {
		sc.GenerateTo(sc.Len() + c)
	}
	f.Add(storeMetaBytes(sc))
	f.Add(overclaimMeta(sc, 2*sc.Len()))
	f.Fuzz(func(t *testing.T, meta []byte) {
		dir := t.TempDir()
		if _, err := persistSnapshot(dir, OSSnapshotFS, meta, sc.segs[0], sc.length); err != nil {
			t.Fatal(err)
		}
		rec, info, err := Recover(s, seed, snapOpt(0), dir)
		if err != nil {
			if !typedMetaError(err) {
				t.Fatalf("recover: untyped error %v", err)
			}
			return
		}
		ref := refStream(s, seed, rec.Len())
		if info.Discarded == 0 {
			md, err := decodeStoreMeta(meta, "fuzz")
			if err != nil {
				t.Fatalf("recovered from a meta the decoder rejects: %v", err)
			}
			if rec.Width() != md.seg.width {
				t.Fatalf("width %d, meta declares %d", rec.Width(), md.seg.width)
			}
			rec = declaredWidth{rec, ref.Width()}
		}
		AssertStoresEqual(t, "fuzzed meta", ref, rec)
	})
}

// declaredWidth reports w as the store's width: FuzzRecoverMeta checks a
// recovered width against the meta separately.
type declaredWidth struct {
	Store
	w int64
}

func (d declaredWidth) Width() int64 { return d.w }
