//go:build !unix

package ris

import (
	"fmt"
	"os"
	"unsafe"
)

// Without mmap a "mapped" block is a heap buffer read back from its file:
// every access path and all validation behave identically, but the bytes
// stay resident, so accounting reports them as such (see mappedResident).
// Mirrors the graph package's !unix fallback.
const mappedResident = true

func mapRange(f *os.File, off, length int64) ([]byte, error) {
	// Back the buffer with []uint64 so the payload keeps the alignment the
	// in-place casts rely on.
	words := make([]uint64, (length+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), length)
	if _, err := f.ReadAt(data, off); err != nil {
		return nil, fmt.Errorf("read [%d,+%d): %v", off, length, err)
	}
	return data, nil
}

func unmapRange([]byte) {}
