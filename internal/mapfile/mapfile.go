// Package mapfile turns file bytes into aligned, typed slices for mapped
// .sasg graphs (internal/graph) and spill and snapshot blocks (internal/ris).
// On unix, Map is a read-only shared mapping; elsewhere it reads into an
// aligned heap buffer (Resident), so callers run one code path. Each caller
// owns, and documents, the lifetime of what Map returns.
package mapfile

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"
)

// Cast reinterprets b, whose start is aligned for T (as a mapping's page and
// a buffer from Read are), as a []T aliasing it.
func Cast[T int32 | uint32 | int64 | uint64 | float32](b []byte) []T {
	n := len(b) / int(unsafe.Sizeof(*new(T)))
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// Bytes returns the host-order byte image of s, aliasing it.
func Bytes[T int32 | uint32 | int64 | uint64 | float32](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// Read reads [off, off+length) of f into a heap buffer with 8-byte-aligned
// backing, so the bytes cast exactly as a mapping of them does.
func Read(f *os.File, off, length int64) ([]byte, error) {
	if err := checkRange(off, length); err != nil {
		return nil, err
	}
	b := Bytes(make([]uint64, (length+7)/8))[:length]
	if _, err := f.ReadAt(b, off); err != nil {
		return nil, fmt.Errorf("read [%d,+%d): %w", off, length, err)
	}
	return b, nil
}

// checkRange rejects a range that no slice on this platform can hold.
func checkRange(off, length int64) error {
	if off < 0 || length < 0 || length > math.MaxInt-int64(os.Getpagesize()) {
		return fmt.Errorf("range [%d,+%d) does not fit in memory", off, length)
	}
	return nil
}

// WriteFile replaces path atomically with what write produces: a temporary
// file beside it is written, synced and renamed over it, then the directory
// is synced. A failed write leaves path as it was and no temporary file. A
// reader that has path mapped keeps the old bytes, which are never rewritten.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644) // CreateTemp's 0600 would hide the file from other users
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir makes dir's entries durable, best-effort: some platforms reject a
// directory fsync, and a rename is atomic without it.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	d.Sync()
	return d.Close()
}
