package mapfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestMapRange maps ranges that start inside a page, at a page boundary and
// across one, and checks each reads the file's bytes and casts in place.
func TestMapRange(t *testing.T) {
	page := int64(os.Getpagesize())
	words := make([]uint64, 3*page/8)
	for i := range words {
		words[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, Bytes(words), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, r := range []struct{ off, length int64 }{
		{0, 8}, {64, 128}, {page - 64, 128}, {page, page}, {page + 8, 2*page - 8},
	} {
		b, err := Map(f, r.off, r.length)
		if err != nil {
			t.Fatalf("Map(%d, %d): %v", r.off, r.length, err)
		}
		if len(b) != int(r.length) || !bytes.Equal(b, Bytes(words)[r.off:r.off+r.length]) {
			t.Fatalf("Map(%d, %d) holds other bytes", r.off, r.length)
		}
		if got := Cast[uint64](b); got[0] != words[r.off/8] || len(got) != int(r.length/8) {
			t.Fatalf("Cast of [%d,+%d): %d words, first %#x", r.off, r.length, len(got), got[0])
		}
		DropResident(b)
		if !bytes.Equal(b, Bytes(words)[r.off:r.off+r.length]) {
			t.Fatalf("range [%d,+%d) changed after DropResident", r.off, r.length)
		}
		if err := Unmap(b); err != nil {
			t.Fatalf("Unmap(%d, %d): %v", r.off, r.length, err)
		}
	}
	if _, err := Map(f, -8, 8); err == nil {
		t.Fatal("Map accepted a negative offset")
	}
}

// TestWriteFileFailureKeepsOld: a write callback that fails leaves the
// previous file byte-identical and no temporary file behind, and one that
// succeeds replaces it.
func TestWriteFileFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.sasg")
	old := []byte("previous contents")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		w.Write([]byte("half a new file"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile: %v, want the callback's error", err)
	}
	requireDir(t, dir, path, old)
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	requireDir(t, dir, path, []byte("new"))
}

// TestWriteFileKeepsMappedBytes: replacing a file that is mapped leaves the
// mapping's bytes as they were, even when the new file is shorter.
func TestWriteFileKeepsMappedBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	old := bytes.Repeat([]byte("0123456789abcdef"), 1024)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Map(f, 16, int64(len(old))-16)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	defer Unmap(b)
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("short"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, old[16:]) {
		t.Fatal("the mapping changed when its file was replaced")
	}
}

// requireDir checks that dir holds path alone, with contents want.
func requireDir(t *testing.T, dir, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s holds %q, want %q", path, got, want)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != filepath.Base(path) {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("dir holds %v, want only %s", names, filepath.Base(path))
	}
}
