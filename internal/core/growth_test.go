package core

import (
	"math"
	"testing"
)

// TestBoundedGrowthHelpers pins the overflow guards of the doubling
// schedules: both helpers saturate at growthCap (derived from the int32
// width RR-set ids are stored in — the old math.MaxInt/4 let a 64-bit run
// ask for more than 2³¹−1 sets and wrap ids silently) and never go
// non-positive, however often they are applied.
func TestBoundedGrowthHelpers(t *testing.T) {
	if got := boundedShift(5, 3); got != 40 {
		t.Fatalf("boundedShift(5,3) = %d, want 40", got)
	}
	if got := boundedShift(3, 500); got != growthCap {
		t.Fatalf("boundedShift must saturate at growthCap, got %d", got)
	}
	if got := boundedDouble(7); got != 14 {
		t.Fatalf("boundedDouble(7) = %d, want 14", got)
	}
	if got := boundedDouble(0); got != 1 {
		t.Fatalf("boundedDouble(0) = %d, want 1", got)
	}
	if got := boundedDouble(growthCap + 1); got != growthCap+1 {
		t.Fatalf("boundedDouble past the cap must not grow, got %d", got)
	}
	v := 1
	for i := 0; i < 200; i++ {
		v = boundedDouble(v)
		if v <= 0 {
			t.Fatalf("boundedDouble overflowed to %d after %d doublings", v, i+1)
		}
	}
	if v < growthCap || boundedDouble(v) != v {
		t.Fatalf("repeated doubling should reach a fixed point at/just past growthCap, got %d", v)
	}
	// Every stream length either loop can ask for must be a representable
	// RR-set id count: SSA generates the doubling fixed point, D-SSA
	// generates 2·half for every half the schedule can produce — including
	// the largest unsaturated one, reached from a unit just below the cap.
	if v > math.MaxInt32 {
		t.Fatalf("SSA's fixed point %d exceeds the int32 id space", v)
	}
	for _, unit := range []int{1, 3, 5, 1000, growthCap - 1, growthCap, growthCap/2 + 1} {
		for sh := 0; sh < 70; sh++ {
			if half := boundedShift(unit, sh); half <= 0 || 2*int64(half) > math.MaxInt32 {
				t.Fatalf("2·boundedShift(%d, %d) = 2·%d exceeds the int32 id space", unit, sh, half)
			}
		}
	}
}
