package stopandstare_test

import (
	"path/filepath"
	"slices"
	"testing"

	"stopandstare"
)

// The serving-layer view of the out-of-core refactor: a Session on a graph
// opened from its .sasg mapping must answer queries bit-identically to a
// Session on the heap original, and Stats must report the graph's bytes on
// the correct side of the resident/mapped split.

func mappedSessionTwin(t *testing.T, g *stopandstare.Graph) *stopandstare.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "twin.sasg")
	if err := g.WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := stopandstare.OpenGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := m.Close(); err != nil {
			t.Errorf("closing mapped graph: %v", err)
		}
	})
	return m
}

func TestSessionMappedGraph(t *testing.T) {
	heap, err := stopandstare.GeneratePowerLaw(400, 2200, 2.1, 654)
	if err != nil {
		t.Fatal(err)
	}
	mapped := mappedSessionTwin(t, heap)

	newSess := func(g *stopandstare.Graph) *stopandstare.Session {
		sess, err := stopandstare.NewSession(g, stopandstare.IC, stopandstare.SessionOptions{Seed: 5, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	hs, ms := newSess(heap), newSess(mapped)

	// Same query stream on both backends: bit-identical answers.
	for _, q := range []stopandstare.Query{
		{K: 4, Epsilon: 0.3},
		{K: 9, Epsilon: 0.3},
		{K: 4, Epsilon: 0.3}, // warm repeat
	} {
		hr, err := hs.Maximize(q)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := ms.Maximize(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(hr.Seeds, mr.Seeds) {
			t.Fatalf("k=%d: mapped seeds %v, heap seeds %v", q.K, mr.Seeds, hr.Seeds)
		}
		if hr.InfluenceEstimate != mr.InfluenceEstimate || hr.Samples != mr.Samples {
			t.Fatalf("k=%d: mapped influence/samples %v/%d, heap %v/%d",
				q.K, mr.InfluenceEstimate, mr.Samples, hr.InfluenceEstimate, hr.Samples)
		}
	}

	// Accounting split: the heap session charges the graph to resident
	// bytes, the mapped session to mapped bytes (on platforms with real
	// mmap; the fallback honestly reports resident).
	hst, mst := hs.Stats(), ms.Stats()
	if hst.GraphResidentBytes != heap.Bytes() || hst.GraphMappedBytes != 0 {
		t.Fatalf("heap session graph bytes resident=%d mapped=%d, want %d/0",
			hst.GraphResidentBytes, hst.GraphMappedBytes, heap.Bytes())
	}
	if mapped.Mapped() {
		if mst.GraphMappedBytes != mapped.Bytes() || mst.GraphResidentBytes != 0 {
			t.Fatalf("mapped session graph bytes resident=%d mapped=%d, want 0/%d",
				mst.GraphResidentBytes, mst.GraphMappedBytes, mapped.Bytes())
		}
	} else if mst.GraphResidentBytes <= 0 {
		t.Fatalf("fallback session reports no graph bytes: %+v", mst)
	}
}
