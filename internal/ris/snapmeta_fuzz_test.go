package ris

import (
	"errors"
	"runtime"
	"testing"
)

// fuzzMetaNodes is the graph size worker metas are decoded against: the
// node count of snapTestSampler, which wrote the checked-in seeds.
const fuzzMetaNodes = 120

// allocDuring reports the bytes fn allocated (runtime-wide, so callers keep
// the rest of the process quiet while measuring).
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// typedMetaError reports whether err is one of the two errors a meta
// decoder may return.
func typedMetaError(err error) bool {
	var ce *SnapshotCorruptError
	var me *SnapshotMismatchError
	return errors.As(err, &ce) || errors.As(err, &me)
}

// TestSnapshotMetaBoundedAlloc decodes two tiny meta payloads that declare
// huge record counts: each must fail as corrupt before allocating for the
// declared counts.
func TestSnapshotMetaBoundedAlloc(t *testing.T) {
	var worker wbuf // version, n, count: 16 bytes declaring 2^20 shard records
	worker.u32(snapVersion)
	worker.u64(fuzzMetaNodes)
	worker.u32(1 << 20)

	var store wbuf // 56 bytes declaring 2^30 epochs over 2^20 shards
	store.u32(snapVersion)
	store.u64(1)  // seed
	store.u8(0)   // model
	store.u8(0)   // reserved
	store.u8(0)   // weighted
	store.u64(0)  // weights hash
	store.f64(1)  // scale
	store.u64(10) // n
	store.u64(0)  // length
	store.u32(1 << 20)
	store.u8(0) // remote
	store.u32(1 << 30)

	for name, payload := range map[string][]byte{"worker": worker.b, "store": store.b} {
		var err error
		got := allocDuring(func() {
			if name == "worker" {
				_, err = decodeWorkerMeta(payload, name, fuzzMetaNodes)
			} else {
				_, err = decodeStoreMeta(payload, name)
			}
		})
		var ce *SnapshotCorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s meta: %v, want *SnapshotCorruptError", name, err)
		}
		if got >= 64<<10 {
			t.Fatalf("%s meta: a %d-byte payload allocated %d bytes", name, len(payload), got)
		}
	}
}

// FuzzSnapshotMeta runs arbitrary bytes through both meta-block decoders.
// Each must return a meta or a typed snapshot error, never panic, and
// allocate at most a constant times the payload length. The seed corpus
// (testdata/fuzz/FuzzSnapshotMeta) holds real encodeStoreMeta and
// encodeWorkerMeta payloads over snapTestSampler's graph: one and three
// shards, remote keys, and spilled segments.
func FuzzSnapshotMeta(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var serr, werr error
		got := allocDuring(func() {
			_, serr = decodeStoreMeta(payload, "fuzz")
			_, werr = decodeWorkerMeta(payload, "fuzz", fuzzMetaNodes)
		})
		if serr != nil && !typedMetaError(serr) {
			t.Fatalf("store meta: untyped error %v", serr)
		}
		if werr != nil && !typedMetaError(werr) {
			t.Fatalf("worker meta: untyped error %v", werr)
		}
		if limit := 64*uint64(len(payload)) + 64<<10; got > limit {
			t.Fatalf("a %d-byte payload allocated %d bytes (limit %d)", len(payload), got, limit)
		}
	})
}
