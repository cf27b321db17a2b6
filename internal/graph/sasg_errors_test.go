package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// These tests cover the .sasg structural-validation paths both opens must
// take before trusting a byte of section data: every corruption is applied
// to a known-good image, written to a real file, and must be rejected with
// ErrBadMapped by the mapped open and by the decoded open alike — never a
// panic, never a silently wrong graph.

// validSasgImage serializes a small real graph and returns the raw bytes.
func validSasgImage(t *testing.T) []byte {
	t.Helper()
	g := randomTestGraph(t, 20, 80, 42)
	var buf bytes.Buffer
	if err := g.WriteMapped(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// opens are the two ways OpenMapped reads a file: mapping it (on this host)
// and decoding it onto the heap.
var opens = []struct {
	name string
	open func(t *testing.T, path string) (*Graph, error)
}{
	{"mapped", func(_ *testing.T, path string) (*Graph, error) { return OpenMapped(path) }},
	{"decoded", openDecoded},
}

// requireRejected writes data to a temp file and opens it with each open,
// failing the test unless both return ErrBadMapped.
func requireRejected(t *testing.T, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corrupt.sasg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, o := range opens {
		g, err := o.open(t, path)
		if err == nil {
			n := g.NumNodes()
			g.Close()
			t.Fatalf("%s: corrupt image opened: %d nodes", o.name, n)
		}
		if !errors.Is(err, ErrBadMapped) {
			t.Fatalf("%s: want ErrBadMapped, got %v", o.name, err)
		}
	}
}

func TestOpenMappedRejectsCorruption(t *testing.T) {
	valid := validSasgImage(t)
	// The image must be good as-is, or every case below is vacuous.
	path := filepath.Join(t.TempDir(), "valid.sasg")
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, o := range opens {
		g, err := o.open(t, path)
		if err != nil {
			t.Fatalf("%s: pristine image failed to open: %v", o.name, err)
		}
		if g.NumNodes() != 20 {
			t.Fatalf("%s: pristine image has %d nodes, want 20", o.name, g.NumNodes())
		}
		g.Close()
	}

	n := binary.LittleEndian.Uint64(valid[16:])
	m := binary.LittleEndian.Uint64(valid[24:])
	secs, _ := sasgLayout(n, m)

	cases := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"bad-magic", func(d []byte) []byte {
			d[0] ^= 0xff
			return d
		}},
		{"unsupported-version", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[4:], 99)
			return d
		}},
		{"foreign-endian-tag", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], 0x04030201)
			return d
		}},
		{"zero-nodes", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[16:], 0)
			return d
		}},
		{"node-count-overflow", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[16:], 1<<62)
			return d
		}},
		{"edge-count-overflow", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[24:], 1<<62)
			return d
		}},
		{"count-mismatch", func(d []byte) []byte {
			// Halving m desyncs every section length from the table.
			binary.LittleEndian.PutUint64(d[24:], m/2)
			return d
		}},
		{"misaligned-section-offset", func(d []byte) []byte {
			off := binary.LittleEndian.Uint64(d[32+16*1:])
			binary.LittleEndian.PutUint64(d[32+16*1:], off+4)
			return d
		}},
		{"wrong-section-length", func(d []byte) []byte {
			l := binary.LittleEndian.Uint64(d[40+16*2:])
			binary.LittleEndian.PutUint64(d[40+16*2:], l+8)
			return d
		}},
		{"misplaced-section", func(d []byte) []byte {
			// Aligned and right-sized, but not where the canonical packed
			// layout puts it.
			off := binary.LittleEndian.Uint64(d[32+16*3:])
			binary.LittleEndian.PutUint64(d[32+16*3:], off+sasgAlign)
			return d
		}},
		{"truncated-mid-section", func(d []byte) []byte {
			return d[:len(d)-10]
		}},
		{"truncated-header", func(d []byte) []byte {
			return d[:100]
		}},
		{"endpoint-mismatch", func(d []byte) []byte {
			// outIdx[n] must equal m; zeroing it means the offset table
			// disagrees with the header's edge count.
			binary.LittleEndian.PutUint64(d[secs[0].off+n*8:], 0)
			return d
		}},
		{"swapped-offset-table", func(d []byte) []byte {
			// A zeroed outIdx section still parses structurally; the
			// endpoint check has to catch it.
			for i := secs[0].off; i < secs[0].off+secs[0].len; i++ {
				d[i] = 0
			}
			return d
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireRejected(t, tc.corrupt(append([]byte(nil), valid...)))
		})
	}
}

func TestOpenMappedEmptyFile(t *testing.T) {
	requireRejected(t, nil)
}

// TestWriteMappedRejectsOverflow: the writer refuses graphs whose counts
// the format (on this platform) could not reopen.
func TestWriteMappedRejectsEmptyGraph(t *testing.T) {
	g := &Graph{}
	var buf bytes.Buffer
	if err := g.WriteMapped(&buf); !errors.Is(err, ErrBadMapped) {
		t.Fatalf("zero-node write: want ErrBadMapped, got %v", err)
	}
}
