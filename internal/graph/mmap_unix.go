//go:build unix

package graph

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// mapView backs a graph opened from a read-only file mapping. Close unmaps;
// after that every slice of the owning Graph is invalid. Close must not race
// with queries on the same graph — retire the graph from serving first.
type mapView struct {
	data []byte
}

func (v *mapView) ResidentBytes() int64 { return 0 }
func (v *mapView) MappedBytes() int64   { return int64(len(v.data)) }
func (v *mapView) Kind() string         { return "mapped" }

func (v *mapView) Close() error {
	if v.data == nil {
		return nil
	}
	data := v.data
	v.data = nil
	return syscall.Munmap(data)
}

// openSasg maps the .sasg file f of size bytes read-only, so the graph's
// arrays alias the mapping in place; a big-endian host decodes it instead.
// The mapping keeps the file pinned after f is closed.
func openSasg(f *os.File, size int64) (*Graph, error) {
	if !hostLittleEndian {
		return decodeSasg(f, size)
	}
	if size > math.MaxInt {
		return nil, fmt.Errorf("%w: %d bytes is too large to map on this platform", ErrBadMapped, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("graph: mmap: %w", err)
	}
	view := &mapView{data: data}
	g, err := graphFromMapped(data, view)
	if err != nil {
		view.Close()
		return nil, err
	}
	return g, nil
}
