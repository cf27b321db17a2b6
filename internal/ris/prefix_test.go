package ris

import (
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

// TestPrefixStability is the property D-SSA's correctness rests on: the
// stream is append-only, so R_{t+1} literally contains R_t ∪ R^c_t — no
// sample is regenerated or discarded when the collection grows.
func TestPrefixStability(t *testing.T) {
	g, err := gen.ChungLu(200, 1200, 2.1, 271, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.LT)
	col := NewShardedCollection(s, 277, 1, 3)
	col.GenerateTo(500)
	snapshot := make([][]uint32, 500)
	for i := 0; i < 500; i++ {
		snapshot[i] = append([]uint32(nil), col.Set(i)...)
	}
	col.GenerateTo(col.Len() + 1500) // grow 4x
	if col.Len() != 2000 {
		t.Fatalf("len %d", col.Len())
	}
	for i := 0; i < 500; i++ {
		got := col.Set(i)
		if len(got) != len(snapshot[i]) {
			t.Fatalf("set %d changed length after growth", i)
		}
		for j := range got {
			if got[j] != snapshot[i][j] {
				t.Fatalf("set %d mutated after growth", i)
			}
		}
	}
	// And the grown stream matches a from-scratch draw of the same 2000 ids
	// from the definition (append-only ≡ restart, the resumability property).
	fresh := refStream(s, 277, 2000)
	for i := 0; i < 2000; i++ {
		a, b := col.Set(i), fresh.Set(i)
		if len(a) != len(b) {
			t.Fatalf("incremental vs fresh set %d length", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("incremental vs fresh set %d differs", i)
			}
		}
	}
}
