package ris

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/mapfile"
)

// spilledStore builds a store with a spill tier over the test's temp dir.
func spilledStore(t *testing.T, s *Sampler, seed uint64, shards int, budget int64) Store {
	t.Helper()
	return NewStore(s, seed, StoreOptions{
		Workers: 2 * max(shards, 1), Shards: shards, // two workers per shard
		SpillBudgetBytes: budget, SpillDir: t.TempDir(),
	})
}

// TestSpillFileRoundTrip pins the block format end to end: payloads of
// irregular sizes (empty, sub-header, multi-page unaligned) come back
// bit-equal through mapBlock, block offsets stay 64-byte aligned, and kind,
// length or offset mismatches surface as ErrBadSpill.
func TestSpillFileRoundTrip(t *testing.T) {
	sf, err := newSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sf.close()

	big := make([]byte, 3*4096+7)
	for i := range big {
		big[i] = byte(i*31 + 5)
	}
	cases := [][][]byte{
		{{1, 2, 3, 4, 5}},
		{nil, {9}},                   // leading empty part
		{},                           // empty payload
		{big},                        // multi-page, unaligned length
		{{7, 7}, big[:13], nil, {1}}, // many parts concatenated
	}
	for i, parts := range cases {
		off, err := sf.append(snapKindArena, parts...)
		if err != nil {
			t.Fatalf("append case %d: %v", i, err)
		}
		if off%blockAlign != 0 {
			t.Fatalf("case %d: block at unaligned offset %d", i, off)
		}
		want := bytes.Join(parts, nil)
		payload, err := sf.mapBlock(off, snapKindArena, int64(len(want)))
		if err != nil {
			t.Fatalf("map case %d: %v", i, err)
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("case %d: payload %d bytes differs from written %d bytes", i, len(payload), len(want))
		}
	}
	if sf.blocks != len(cases) {
		t.Fatalf("%d blocks counted, want %d", sf.blocks, len(cases))
	}
	if _, err := sf.mapBlock(0, snapKindIndex, 5); !errors.Is(err, ErrBadSpill) {
		t.Fatalf("kind mismatch: %v, want ErrBadSpill", err)
	}
	if _, err := sf.mapBlock(0, snapKindArena, 4); !errors.Is(err, ErrBadSpill) {
		t.Fatalf("length mismatch: %v, want ErrBadSpill", err)
	}
	if _, err := sf.mapBlock(sf.size, snapKindArena, 0); !errors.Is(err, ErrBadSpill) {
		t.Fatalf("offset past the end: %v, want ErrBadSpill", err)
	}
}

// TestSpillFileCorruption mirrors sasg_errors_test.go for the spill tier: a
// clobbered block header and a truncated file both surface as ErrBadSpill
// from mapBlock, while untouched blocks keep mapping fine.
func TestSpillFileCorruption(t *testing.T) {
	sf, err := newSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sf.close()
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	var offs []int64
	for i := 0; i < 3; i++ {
		off, err := sf.append(snapKindIndex, payload)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	plen := int64(len(payload))

	// Clobber block 1's magic.
	if _, err := sf.f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, offs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.mapBlock(offs[1], snapKindIndex, plen); !errors.Is(err, ErrBadSpill) {
		t.Fatalf("corrupt magic: %v, want ErrBadSpill", err)
	}

	// Truncate block 2's payload away (header survives).
	if err := sf.f.Truncate(offs[2] + blockHdrSize); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.mapBlock(offs[2], snapKindIndex, plen); !errors.Is(err, ErrBadSpill) {
		t.Fatalf("truncated payload: %v, want ErrBadSpill", err)
	}

	// Block 0 is untouched.
	if got, err := sf.mapBlock(offs[0], snapKindIndex, plen); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("intact block after corruption elsewhere: %v", err)
	}
}

// TestSpillStoreBitIdentical is the store-level round-trip property test:
// an irregular growth pattern (uneven index blocks), a full mid-life spill,
// growth on top of spilled state, and a second spill must leave every
// observable bit-identical to the definition-level reference stream — one
// shard and several.
func TestSpillStoreBitIdentical(t *testing.T) {
	g, err := gen.ChungLu(300, 2000, 2.1, 5, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	pattern := []int{1, 3, 60, 2, 250, 17, 400, 1, 128}

	total := 300
	for _, c := range pattern {
		total += c
	}
	ref := refStream(s, 42, total)
	for _, shards := range []int{0, 3} {
		// A never-spilled twin sizes the ~50% budget.
		unspilled := NewStore(s, 42, StoreOptions{Workers: 2 * max(shards, 1), Shards: shards})
		unspilled.GenerateTo(total)

		for _, budget := range []int64{1, unspilled.Bytes() / 2} {
			st := spilledStore(t, s, 42, shards, budget)
			for _, c := range pattern {
				st.GenerateTo(st.Len() + c)
			}
			if err := st.SpillTo(0); err != nil {
				t.Fatal(err)
			}
			st.GenerateTo(st.Len() + 300) // growth over spilled state
			if err := st.SpillTo(0); err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("shards=%d", shards)
			stats := st.SpillStats()
			if !stats.Enabled || stats.Blocks == 0 || stats.FileBytes == 0 {
				t.Fatalf("%s/budget=%d: spilling never happened: %+v", ctx, budget, stats)
			}
			if stats.Err != "" {
				t.Fatalf("%s/budget=%d: spill error: %s", ctx, budget, stats.Err)
			}
			AssertStoresEqual(t, ctx, ref, st)
		}
	}
}

// TestSpillEdgeCases covers the degenerate shapes: a single-node graph
// (every RR set is the one-element root set) and hand-built segments with
// zero-length sets mixed into a spilled extent.
func TestSpillEdgeCases(t *testing.T) {
	// n = 1: sets are all {0}.
	g1 := mustGraph(t, 1, nil)
	s1 := mustSampler(t, g1, diffusion.IC)
	ref := refStream(s1, 9, 50)
	st := spilledStore(t, s1, 9, 0, 1)
	st.GenerateTo(20)
	st.GenerateTo(50)
	if err := st.SpillTo(0); err != nil {
		t.Fatal(err)
	}
	AssertStoresEqual(t, "n=1", ref, st)

	// Zero-length sets inside a spilled extent: setAt must return empty
	// slices exactly where the offsets say so.
	sg := newSegment(4)
	sp := newSpillState(1, t.TempDir())
	sg.spill = sp
	sg.appendResults([]chunkResult{{buf: []uint32{1, 2, 3}, offsets: []int32{0, 0, 2, 2, 3}}}, 0)
	if err := sp.enforce(0, []*segment{sg}); err != nil {
		t.Fatal(err)
	}
	if !sg.exts[0].mapped {
		t.Fatal("the extent was not spilled")
	}
	want := [][]uint32{{}, {1, 2}, {}, {3}}
	for i, w := range want {
		if got := sg.setAt(i); !slices.Equal(got, w) {
			t.Fatalf("set %d = %v, want %v", i, got, w)
		}
	}
}

// TestSpillKeepsFreshIndexBlock pins that an index block is stamped most
// recently used when it is built. Under doubling the newest block has merged
// in most of the index, so a spill of one unit's worth must take the oldest
// arena extent, not an index block.
func TestSpillKeepsFreshIndexBlock(t *testing.T) {
	g, err := gen.ErdosRenyi(2000, 12000, 53, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	sc := spilledStore(t, s, 11, 0, 1<<40).(*ShardedCollection) // nothing spills on its own
	for target := 1000; target <= 8000; target *= 2 {
		sc.GenerateTo(target)
	}
	sg := sc.segs[0]
	if err := sc.SpillTo(sg.residentBytes() - 1); err != nil {
		t.Fatal(err)
	}
	for i := range sg.blocks {
		if sg.blocks[i].mapped {
			t.Fatalf("the spill took index block %d (%d ids)", i, len(sg.blocks[i].ids))
		}
	}
	if len(sg.exts) != 4 {
		t.Fatalf("the ladder left %d extents, want 4", len(sg.exts))
	}
	for i := range sg.exts {
		if sg.exts[i].mapped != (i == 0) {
			t.Fatalf("extent %d mapped = %v; only the oldest extent should be spilled", i, sg.exts[i].mapped)
		}
	}
	AssertStoresEqual(t, "one-unit spill", refStream(s, 11, sc.Len()), sc)
}

// fullDisk is a SnapshotFile whose every write fails with err: the disk
// full / I/O error injection for a block file's append path.
type fullDisk struct{ err error }

func (d fullDisk) Write([]byte) (int, error) { return 0, d.err }
func (fullDisk) Sync() error                 { return nil }
func (fullDisk) Close() error                { return nil }

// TestSpillDiskFull injects an append failure: the typed *SpillWriteError
// is recorded and sticky, the store stops spilling but stays consistent and
// fully resident, and it keeps growing bit-identically afterwards.
func TestSpillDiskFull(t *testing.T) {
	g, err := gen.ErdosRenyi(80, 500, 7, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	ref := refStream(s, 3, 600)

	c := spilledStore(t, s, 3, 0, 1).(*ShardedCollection)
	diskFull := errors.New("no space left on device")
	f, err := c.spill.file()
	if err != nil {
		t.Fatal(err)
	}
	f.w = fullDisk{diskFull}
	c.GenerateTo(400) // growth crosses the 1-byte budget; the spill attempt fails

	var we *SpillWriteError
	if err := c.spill.err; !errors.As(err, &we) || !errors.Is(err, diskFull) {
		t.Fatalf("recorded error %v, want *SpillWriteError wrapping the injected failure", err)
	}
	stats := c.SpillStats()
	if stats.Err == "" || stats.SpilledBytes != 0 {
		t.Fatalf("after disk-full: %+v, want Err set and nothing spilled", stats)
	}
	if err := c.SpillTo(0); !errors.Is(err, diskFull) {
		t.Fatalf("SpillTo after failure = %v, want the sticky error", err)
	}
	c.GenerateTo(600) // further growth must not retry or corrupt anything
	AssertStoresEqual(t, "disk-full", ref, c)
}

// TestSpillAccounting pins the satellite accounting fix: per-unit metadata
// records count toward residentBytes, Bytes() is conserved across a spill
// (the resident drop covers at least the bytes now spilled), and the file
// accounting includes header/padding overhead.
func TestSpillAccounting(t *testing.T) {
	// Metadata inclusion: block and extent records themselves are counted.
	sg := newSegment(0)
	sg.blocks = make([]csrBlock, 100)
	sg.exts = make([]arenaExtent, 10)
	wantMeta := 100*int64(unsafe.Sizeof(csrBlock{})) + 10*int64(unsafe.Sizeof(arenaExtent{}))
	if got := sg.residentBytes(); got < wantMeta {
		t.Fatalf("residentBytes %d misses unit metadata (want >= %d)", got, wantMeta)
	}

	g, err := gen.ChungLu(300, 2000, 2.1, 11, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	c := spilledStore(t, s, 17, 0, 1<<40) // huge budget: nothing spills on its own
	c.GenerateTo(900)
	before := c.Bytes()
	if err := c.SpillTo(0); err != nil {
		t.Fatal(err)
	}
	after := c.Bytes()
	stats := c.SpillStats()
	if stats.SpilledBytes > 0 && before-after < stats.SpilledBytes {
		t.Fatalf("resident dropped %d for %d spilled bytes: spilled data still double-counted",
			before-after, stats.SpilledBytes)
	}
	if stats.Blocks == 0 || stats.FileBytes < stats.SpilledBytes+int64(stats.Blocks)*blockHdrSize {
		t.Fatalf("file accounting misses header/padding overhead: %+v", stats)
	}
	// The spilled session stats split must agree with the store.
	if mapfile.Resident {
		if stats.SpilledBytes != 0 {
			t.Fatalf("fallback platform reported %d spilled bytes", stats.SpilledBytes)
		}
	} else if stats.SpilledBytes == 0 {
		t.Fatal("SpillTo(0) spilled nothing")
	}

	// The point of tiering: a budget of a tenth of the unspilled footprint
	// (~90% of the bytes on disk) leaves at most half of them resident.
	if !mapfile.Resident {
		flat := spilledStore(t, s, 17, 0, 1<<40)
		flat.GenerateTo(900)
		tight := spilledStore(t, s, 17, 0, flat.Bytes()/10)
		tight.GenerateTo(900)
		if got, limit := tight.Bytes(), flat.Bytes()/2; got > limit {
			t.Fatalf("resident %d at a 90%% spill budget, want <= %d (half of %d unspilled)",
				got, limit, flat.Bytes())
		}
	}
}
