package ris

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

// testdata/snapshot-v1-1shard is a committed state directory (manifest plus
// snapshot) holding formatPinStore at one shard, written before the
// multi-shard snapshot code was removed. It pins the v1 snapshot format in
// both directions: this build must recover it bit-identically and must
// write exactly its bytes again. testdata/snapshot-v1 holds the same store
// at three shards, written by the first build of the block file that serves
// both spill and snapshot files; it stays as the foreign-topology fixture
// an old multi-shard state directory presents.

const formatPinSeed = 2016

func formatPinSampler(t *testing.T) *Sampler {
	t.Helper()
	g, err := gen.ChungLu(40, 160, 2.1, 3, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	return mustSampler(t, g, diffusion.IC)
}

// formatPinStore grows a store with a spill tier in an irregular pattern
// under a 1-byte budget, so its snapshot carries a multi-epoch table and
// several arena extents and index blocks, read back from the spill file's
// mappings.
func formatPinStore(t *testing.T, s *Sampler, shards int) Store {
	t.Helper()
	st := spilledStore(t, s, formatPinSeed, shards, 1)
	for _, c := range []int{5, 17, 2, 30} {
		st.GenerateTo(st.Len() + c)
	}
	return st
}

func hostBigEndian() bool {
	var b [2]byte
	binary.NativeEndian.PutUint16(b[:], 1)
	return b[0] == 0
}

// TestSnapshotFormatV1 recovers the checked-in one-shard v1 snapshot
// bit-identically to the reference stream and requires both a freshly grown
// store and the recovered one to persist to the fixture's exact bytes. The
// 3-shard fixture must be refused as a topology mismatch, whatever shard
// count the recovering store asks for.
func TestSnapshotFormatV1(t *testing.T) {
	if hostBigEndian() {
		t.Skip("snapshot payloads are host-order images; the fixture is little-endian")
	}
	s := formatPinSampler(t)
	dir := filepath.Join("testdata", "snapshot-v1-1shard")
	fixture, err := ReadSnapshotInfo(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fixture.Path)
	if err != nil {
		t.Fatal(err)
	}

	rec, info, err := Recover(s, formatPinSeed, snapOpt(1), dir)
	if err != nil {
		t.Fatalf("recover fixture: %v", err)
	}
	if info.Discarded != 0 || info.RebuiltIndexBlocks != 0 || info.Sets != fixture.Sets {
		t.Fatalf("recovery info %+v, want a clean %d sets", info, fixture.Sets)
	}
	AssertStoresEqual(t, "v1 fixture", refStream(s, formatPinSeed, info.Sets), rec)

	for name, st := range map[string]Store{"fresh": formatPinStore(t, s, 1), "recovered": rec} {
		got, err := st.Persist(t.TempDir())
		if err != nil {
			t.Fatalf("%s: persist: %v", name, err)
		}
		data, err := os.ReadFile(got.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("%s: persisted %d bytes differ from the %d-byte v1 fixture", name, len(data), len(want))
		}
	}

	for _, shards := range []int{1, 3} {
		var mm *SnapshotMismatchError
		if _, _, err := Recover(s, formatPinSeed, snapOpt(shards), filepath.Join("testdata", "snapshot-v1")); !errors.As(err, &mm) {
			t.Fatalf("3-shard fixture, shards=%d: %v, want *SnapshotMismatchError", shards, err)
		}
	}
}
