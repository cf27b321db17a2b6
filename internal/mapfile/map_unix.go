//go:build unix

package mapfile

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// Resident reports whether Map returns heap memory (the !unix fallback).
const Resident = false

// Map maps [off, off+length) of f read-only and shared; off need not be
// page-aligned, and length must be positive. The range stays valid until
// Unmap, even once f is closed or replaced. A read past the file's end
// faults, so callers check the range against the file's size first.
func Map(f *os.File, off, length int64) ([]byte, error) {
	if err := checkRange(off, length); err != nil {
		return nil, err
	}
	lead := off % int64(os.Getpagesize())
	data, err := syscall.Mmap(int(f.Fd()), off-lead, int(lead+length), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap [%d,+%d): %w", off, length, err)
	}
	return data[lead:], nil
}

// Unmap releases a range Map returned; a read through it then faults.
func Unmap(b []byte) error { return syscall.Munmap(whole(b)) }

// whole widens a range Map returned back to its page-aligned mapping.
func whole(b []byte) []byte {
	lead := int(uintptr(unsafe.Pointer(&b[0])) % uintptr(os.Getpagesize()))
	return unsafe.Slice((*byte)(unsafe.Add(unsafe.Pointer(&b[0]), -lead)), lead+cap(b))
}
