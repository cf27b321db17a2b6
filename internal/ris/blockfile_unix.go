//go:build unix

package ris

import (
	"fmt"
	"os"
	"syscall"
)

// mappedResident reports whether mapped block payloads occupy heap (the
// no-mmap fallback reads blocks back into heap buffers; real mappings do
// not).
const mappedResident = false

// mapRange maps [off, off+length) of f read-only and shared: fault-in is
// the OS paging bytes back through the mapping, and the page cache is the
// hot tier.
func mapRange(f *os.File, off, length int64) ([]byte, error) {
	data, err := syscall.Mmap(int(f.Fd()), off, int(length), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap [%d,+%d): %v", off, length, err)
	}
	return data, nil
}

func unmapRange(data []byte) { syscall.Munmap(data) }
