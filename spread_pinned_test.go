package stopandstare

import (
	"fmt"
	"testing"
)

// TestEvaluateSpreadPinned pins EvaluateSpread's mean and standard error,
// bit for bit, for one seed set on nethept@0.2 under IC and LT. Run i of a
// spread estimate is a pure function of (seed, i), so any change to the
// forward simulators' draw order shows here.
func TestEvaluateSpreadPinned(t *testing.T) {
	g, err := GeneratePreset("nethept", 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint32{0, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	for _, tc := range []struct {
		model Model
		want  string // mean stderr, as %x
	}{
		{IC, "0x1.2432b020c49bap+06 0x1.2017644b7f4f4p+01"},
		{LT, "0x1.6777ced916873p+06 0x1.cc691afc4bad5p+01"},
	} {
		mean, se, err := EvaluateSpread(g, tc.model, seeds, 2000, 17, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x %x", mean, se); got != tc.want {
			t.Errorf("%v: mean/stderr %q (%.4f ± %.4f), pinned %q", tc.model, got, mean, se, tc.want)
		}
	}
}
