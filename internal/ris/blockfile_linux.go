package ris

import "syscall"

// dropResident takes a validated block mapping's pages out of the process's
// resident set. The mapping is shared and read-only, so the pages stay in the
// page cache, and a read faults its page back in. The error is dropped: a
// failure only leaves the pages resident, as they were.
func dropResident(data []byte) { _ = syscall.Madvise(data, syscall.MADV_DONTNEED) }
