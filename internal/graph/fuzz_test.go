package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
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

// PastOpen uses a graph the way the product does after open: it compiles
// the IC and the LT sampling plan and draws 64 RR sets under each, and runs
// one Monte-Carlo simulation, returning each step's error. pastopen_test.go
// sets it from package graph_test, which may import the samplers this
// package cannot.
var PastOpen func(g *Graph) (ic, lt, sim error)

// FuzzOpenMapped runs arbitrary bytes through both .sasg opens: the header
// and section-table parser over an aligned in-memory image (the sections the
// mapped open casts in place), and the heap decode over a reader. Each must
// fail with an error wrapping ErrBadMapped, never panic, and allocate at
// most a constant times the input length; the two must accept the same
// inputs and hold the same sections, and neither may accept a file of
// another version. An accepted graph then goes through PastOpen, whose
// every step must succeed or fail with a *ContentError; none may panic.
// The seed corpus (testdata/fuzz/FuzzOpenMapped) holds valid images,
// truncations of one, a version 1 image, two bare 192-byte headers (one
// claiming huge n and m, one claiming a 2 MiB layout that a decoder
// allocating before it checks the file size would pay for), and one word
// changed in the valid weighted-cascade image for each content check.
// TestFuzzOpenMappedSeeds pins which check each seed reaches.
func FuzzOpenMapped(f *testing.F) {
	if !hostLittleEndian {
		f.Skip("the mapped leg casts little-endian sections in place")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		image := alignedCopy(data)
		var mapped, decoded *Graph
		var merr, derr error
		got := allocDuring(func() {
			mapped, merr = graphFromMapped(image)
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
		if merr == nil && binary.LittleEndian.Uint32(data[4:]) != sasgVersion {
			t.Fatalf("accepted a version %d image", binary.LittleEndian.Uint32(data[4:]))
		}
		if merr == nil {
			requireSectionsEqual(t, mapped, decoded)
			ic, lt, sim := PastOpen(mapped)
			for step, err := range map[string]error{"IC": ic, "LT": lt, "simulation": sim} {
				var ce *ContentError
				if err != nil && !(errors.As(err, &ce) && errors.Is(err, ErrBadContent)) {
					t.Fatalf("%s: untyped error %v", step, err)
				}
			}
		}
	})
}

// TestFuzzOpenMappedSeeds pins the check each FuzzOpenMapped seed was
// written to reach: the valid and content seeds open, and every other seed
// fails both opens with an error naming its check; past open, each content
// seed fails the step its changed word feeds with that rule's error, and
// nothing else. A format change that left a seed failing earlier, at the
// version check say, would turn its fuzz leg into a test of that check
// alone. seed-version-1 is a version 1 image as the version 1 writer
// produced it, derived sections included. seed-valid's random weights break
// the LT in-weight bound; seed-valid-wc is the image the content seeds
// change one word of.
func TestFuzzOpenMappedSeeds(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("the mapped leg casts little-endian sections in place")
	}
	want := map[string]string{ // seed → error substring, "" = accepted
		"seed-valid":              "",
		"seed-valid-single-node":  "",
		"seed-valid-wc":           "",
		"seed-inadj-2pow30":       "",
		"seed-inidx-2pow40":       "",
		"seed-inw-nan":            "",
		"seed-inw-lt-sum":         "",
		"seed-outw-7":             "",
		"seed-truncated-header":   "header",
		"seed-truncated-last":     "truncated: file is 555 bytes",
		"seed-truncated-sections": "truncated: file is 278 bytes",
		"seed-huge-counts":        "1099511627776",
		"seed-header-claims-2mib": "truncated: file is 192 bytes, layout for n=16384 m=114688 needs 2097472",
		"seed-version-1":          "unsupported version 1",
	}
	// Past open: each step's error, nil = succeeds; ErrBadContent alone is an
	// offset out of order. Seeds not listed pass every step.
	type steps struct{ ic, lt, sim error }
	wantSteps := map[string]steps{
		"seed-valid":        {lt: ErrLTViolation},
		"seed-inadj-2pow30": {ic: ErrBadEndpoint, lt: ErrBadEndpoint},
		"seed-inidx-2pow40": {ic: ErrBadContent, lt: ErrBadContent},
		"seed-inw-nan":      {ic: ErrBadWeight, lt: ErrBadWeight},
		"seed-inw-lt-sum":   {lt: ErrLTViolation},
		"seed-outw-7":       {sim: ErrBadWeight},
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzOpenMapped", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(want) {
		t.Fatalf("%d seeds, want %d", len(paths), len(want))
	}
	for _, path := range paths {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lit := strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte(")
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
			if err != nil {
				t.Fatalf("unreadable seed: %v", err)
			}
			data := []byte(s)
			g, merr := graphFromMapped(alignedCopy(data))
			_, derr := decodeSasg(bytes.NewReader(data), int64(len(data)))
			for leg, err := range map[string]error{"mapped": merr, "decoded": derr} {
				switch w, ok := want[name]; {
				case !ok:
					t.Fatalf("unexpected seed")
				case w == "" && err != nil:
					t.Fatalf("%s: valid seed rejected: %v", leg, err)
				case w != "" && (!errors.Is(err, ErrBadMapped) || !strings.Contains(err.Error(), w)):
					t.Fatalf("%s: got %v, want ErrBadMapped containing %q", leg, err, w)
				}
			}
			if merr != nil {
				return
			}
			ic, lt, sim := PastOpen(g)
			w := wantSteps[name]
			for _, step := range []struct {
				name      string
				got, want error
			}{{"IC", ic, w.ic}, {"LT", lt, w.lt}, {"simulation", sim, w.sim}} {
				if (step.got == nil) != (step.want == nil) || !errors.Is(step.got, step.want) {
					t.Fatalf("%s: got %v, want %v", step.name, step.got, step.want)
				}
			}
		})
	}
}
