//go:build !unix

package mapfile

import "os"

// Resident reports whether Map returns heap memory: without mmap it does.
const Resident = true

// Map reads [off, off+length) of f into an aligned heap buffer (Read).
func Map(f *os.File, off, length int64) ([]byte, error) { return Read(f, off, length) }

// Unmap is a no-op: the collector frees what Map read.
func Unmap([]byte) error { return nil }
