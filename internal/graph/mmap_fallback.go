//go:build !unix

package graph

import "os"

// openSasg has no mmap to alias the file with on this platform, so it
// decodes the .sasg sections onto the heap (View().Kind() "heap").
func openSasg(f *os.File, size int64) (*Graph, error) { return decodeSasg(f, size) }
