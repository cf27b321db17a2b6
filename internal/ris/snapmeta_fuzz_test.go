package ris

import (
	"errors"
	"runtime"
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

// TestSnapshotMetaBoundedAlloc decodes a tiny meta payload that declares
// huge record counts: it must fail as corrupt before allocating for the
// declared counts.
func TestSnapshotMetaBoundedAlloc(t *testing.T) {
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

// FuzzSnapshotMeta runs arbitrary bytes through the store meta-block
// decoder. It must return a meta or a typed snapshot error, never panic,
// and allocate at most a constant times the payload length. The seed
// corpus (testdata/fuzz/FuzzSnapshotMeta) holds real encodeStoreMeta
// payloads over snapTestSampler's graph — one and three shards, remote
// keys, spilled segments — plus the seed-worker-* payloads of the retired
// worker shard-state snapshots, kept as foreign inputs to the store
// decoder.
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
