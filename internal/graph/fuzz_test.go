package graph

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// FuzzLoadEdgeList checks the text parser never panics and that any graph
// it accepts satisfies the CSR invariants.
func FuzzLoadEdgeList(f *testing.F) {
	f.Add("0 1 0.5\n1 2\n")
	f.Add("# comment\n3 4 1.0\n")
	f.Add("0 0 0.1\n")
	f.Add("10 20 0.3 extra\n")
	f.Add("")
	f.Add("x y z\n")
	f.Add("0 1 -0.5\n")
	f.Add("0 1 2.5\n")
	f.Add("18446744073709551615 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := LoadEdgeList(strings.NewReader(input), LoadOptions{Directed: true, Relabel: true})
		if err != nil {
			return // rejected input is fine; panics are not
		}
		n := g.NumNodes()
		if n <= 0 {
			t.Fatal("accepted graph with no nodes")
		}
		var m int64
		for v := 0; v < n; v++ {
			adj, ws := g.OutNeighbors(uint32(v))
			m += int64(len(adj))
			for i, u := range adj {
				if int(u) >= n {
					t.Fatal("out-of-range adjacency")
				}
				if w := ws[i]; w < 0 || w > 1 {
					t.Fatalf("weight %v outside [0,1]", w)
				}
			}
		}
		if m != g.NumEdges() {
			t.Fatal("edge count mismatch")
		}
	})
}

// allocDuring reports the bytes fn allocated (runtime-wide, so callers keep
// the rest of the process quiet while measuring).
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// alignedCopy copies data into 8-byte-aligned memory, as a file mapping is.
func alignedCopy(data []byte) []byte {
	words := make([]uint64, (len(data)+7)/8)
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(data))
	copy(b, data)
	return b
}

// FuzzOpenMapped runs arbitrary bytes through both .sasg opens: the header
// and section-table parser over an aligned in-memory image (the sections the
// mapped open casts in place), and the heap decode over a reader. Each must
// fail with an error wrapping ErrBadMapped, never panic, and allocate at
// most a constant times the input length; the two must accept the same
// inputs and hold the same sections. The seed corpus
// (testdata/fuzz/FuzzOpenMapped) holds valid images, truncations of one,
// and two bare 192-byte headers: one claiming huge n and m, one claiming a
// 2 MiB layout that a decoder allocating before it checks the file size
// would pay for.
func FuzzOpenMapped(f *testing.F) {
	if !hostLittleEndian {
		f.Skip("the mapped leg casts little-endian sections in place")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		image := alignedCopy(data)
		var mapped, decoded *Graph
		var merr, derr error
		got := allocDuring(func() {
			mapped, merr = graphFromMapped(image, heapView{})
			decoded, derr = decodeSasg(bytes.NewReader(data), int64(len(data)))
		})
		if merr != nil && !errors.Is(merr, ErrBadMapped) {
			t.Fatalf("mapped: untyped error %v", merr)
		}
		if derr != nil && !errors.Is(derr, ErrBadMapped) {
			t.Fatalf("decoded: untyped error %v", derr)
		}
		if limit := 64*uint64(len(data)) + 64<<10; got > limit {
			t.Fatalf("a %d-byte input allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if (merr == nil) != (derr == nil) {
			t.Fatalf("opens disagree: mapped %v, decoded %v", merr, derr)
		}
		if merr == nil {
			requireSectionsEqual(t, mapped, decoded)
		}
	})
}
