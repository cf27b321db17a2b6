package gen

import "math/bits"

// arcSet is an insert-only set of packed arcs u<<32|v: open addressing with
// linear probing and a multiplicative hash over a power-of-two table sized
// once, at most two-thirds full at its capacity. The zero key marks an empty
// slot; it is the self-loop (0,0), which no generator inserts.
type arcSet struct {
	slots []uint64
	shift uint
	n     int
}

// newArcSet returns a set that holds up to capacity arcs without growing.
func newArcSet(capacity int64) *arcSet {
	size := uint64(16)
	for size < uint64(capacity)+uint64(capacity)/2 {
		size <<= 1
	}
	return &arcSet{slots: make([]uint64, size), shift: uint(64 - bits.TrailingZeros64(size))}
}

// add inserts key and reports whether it was absent.
func (s *arcSet) add(key uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (key * 0x9E3779B97F4A7C15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key
			s.n++
			return true
		case key:
			return false
		}
	}
}

// len returns the number of arcs in the set.
func (s *arcSet) len() int { return s.n }
