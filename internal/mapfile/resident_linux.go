package mapfile

import "syscall"

// DropResident takes a range Map returned out of the process's resident set.
// The mapping is shared and read-only, so its pages stay in the page cache
// and a read faults one back in. A failure only leaves the pages resident.
// On memory that Map did not return it would discard the contents.
func DropResident(b []byte) { _ = syscall.Madvise(whole(b), syscall.MADV_DONTNEED) }
