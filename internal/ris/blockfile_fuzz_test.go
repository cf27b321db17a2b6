package ris

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openBlocks writes data as a file and opens it as a block file to map,
// closed (and its mappings released) when the test ends.
func openBlocks(t *testing.T, data []byte) *blockFile {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blocks")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	bf := &blockFile{path: path, f: f}
	t.Cleanup(func() { bf.close() })
	return bf
}

// claimedBlock checks the block at offset 0 of data through both readers,
// with the kind and payload length its header claims (zero where data is
// too short to hold them), and returns their payloads, their errors and the
// bytes the two calls allocated.
func claimedBlock(t *testing.T, data []byte) (mapped, read []byte, merr, rerr error, alloc uint64) {
	bf := openBlocks(t, data)
	var hdr [blockHdrSize]byte
	copy(hdr[:], data)
	kind, plen := hdr[4], int64(binary.LittleEndian.Uint64(hdr[8:]))
	alloc = allocDuring(func() {
		mapped, merr = bf.mapBlock(0, kind, plen)
		read, rerr = bf.readBlock(0, kind, plen)
	})
	return mapped, read, merr, rerr, alloc
}

// FuzzBlockFile runs arbitrary bytes through the block decoder: the input is
// a file, and mapBlock and readBlock check its first block with the kind
// and length its header claims. Each must fail with an error wrapping
// ErrBadSpill, never panic or fault, and allocate at most a constant times
// the input length; the two must accept the same inputs and return the
// same payload, the bytes after the header. The seed corpus
// (testdata/fuzz/FuzzBlockFile) holds a valid block of each kind, and one
// of a bad checksum, a bad magic, a truncated payload, a length past the
// file, a negative length and a file shorter than a header;
// TestFuzzBlockFileSeeds pins which check each seed reaches.
func FuzzBlockFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		mapped, read, merr, rerr, alloc := claimedBlock(t, data)
		for leg, err := range map[string]error{"mapBlock": merr, "readBlock": rerr} {
			if err != nil && !errors.Is(err, ErrBadSpill) {
				t.Fatalf("%s: untyped error %v", leg, err)
			}
		}
		if limit := 2*uint64(len(data)) + 64<<10; alloc > limit {
			t.Fatalf("a %d-byte input allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
		if (merr == nil) != (rerr == nil) {
			t.Fatalf("readers disagree: mapBlock %v, readBlock %v", merr, rerr)
		}
		if merr == nil && (!bytes.Equal(mapped, read) || !bytes.Equal(mapped, data[blockHdrSize:blockHdrSize+len(mapped)])) {
			t.Fatal("accepted payloads differ from each other or from the file")
		}
	})
}

// TestFuzzBlockFileSeeds pins the check each FuzzBlockFile seed was written
// to reach, so that its fuzz leg starts past the checks before it.
func TestFuzzBlockFileSeeds(t *testing.T) {
	want := map[string]string{ // seed → error substring, "" = accepted
		"seed-arena":           "",
		"seed-index":           "",
		"seed-meta":            "",
		"seed-offsets-empty":   "",
		"seed-bad-crc":         "checksum",
		"seed-bad-magic":       "magic",
		"seed-truncated":       "outside 84-byte file",
		"seed-huge-length":     "outside 128-byte file",
		"seed-negative-length": "outside 128-byte file",
		"seed-short":           "outside 10-byte file",
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzBlockFile", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(want) {
		t.Fatalf("%d seeds, want %d", len(paths), len(want))
	}
	for _, path := range paths {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			w, ok := want[name]
			if !ok {
				t.Fatal("unexpected seed")
			}
			_, _, merr, rerr, _ := claimedBlock(t, readCorpusBytes(t, path))
			for leg, err := range map[string]error{"mapBlock": merr, "readBlock": rerr} {
				switch {
				case w == "" && err != nil:
					t.Fatalf("%s: valid seed rejected: %v", leg, err)
				case w != "" && (!errors.Is(err, ErrBadSpill) || !strings.Contains(err.Error(), w)):
					t.Fatalf("%s: got %v, want ErrBadSpill containing %q", leg, err, w)
				}
			}
		})
	}
}
