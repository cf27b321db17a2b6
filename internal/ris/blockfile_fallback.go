//go:build !unix

package ris

import "os"

// Without mmap a "mapped" block is a heap buffer read back from its file:
// every access path and all validation behave identically, but the bytes
// stay resident, so accounting reports them as such (see mappedResident).
// Mirrors the graph package's !unix fallback.
const mappedResident = true

func mapRange(f *os.File, off, length int64) ([]byte, error) { return readRange(f, off, length) }

func unmapRange([]byte) {}
