package gen

import (
	"testing"

	"stopandstare/internal/rng"
)

// TestArcSetMatchesMap inserts random arcs, many of them repeats, into an
// arcSet filled to its capacity and into a map, and requires the same
// answers.
func TestArcSetMatchesMap(t *testing.T) {
	const capacity = 5000
	r := rng.New(3)
	s := newArcSet(capacity)
	want := map[uint64]bool{}
	for len(want) < capacity {
		key := uint64(r.Uint32n(90))<<32 | uint64(1+r.Uint32n(90))
		if got := s.add(key); got != !want[key] {
			t.Fatalf("add(%#x) = %v, map says absent = %v", key, got, !want[key])
		}
		want[key] = true
		if s.len() != len(want) {
			t.Fatalf("len = %d, want %d", s.len(), len(want))
		}
	}
}
