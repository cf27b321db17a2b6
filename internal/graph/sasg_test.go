package graph

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// These tests pin the out-of-core .sasg format's happy paths: a mapped
// graph must be a bit-identical twin of the heap graph it was written from
// (every section compared at the float-bit level, so NaN payloads and -0
// can't hide), the edge-list → heap → mapped chain must round-trip, and
// the resident/mapped accounting split must hold for both backends.

// randomTestGraph builds a reproducible random graph without importing the
// generator package (which would cycle back into graph).
func randomTestGraph(t *testing.T, n int, edges int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < edges; i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(u, v, 0.05+0.9*rng.Float64())
	}
	g, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mappedTwin writes g as .sasg to a temp file and opens it mapped. The
// mapping is closed when the test ends.
func mappedTwin(t *testing.T, g *Graph) *Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "twin.sasg")
	if err := g.WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
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

// requireSectionsEqual compares every array of the two graphs bitwise.
func requireSectionsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("n = %d, want %d", got.n, want.n)
	}
	eqI64 := func(name string, a, b []int64) {
		if len(a) != len(b) {
			t.Fatalf("%s: len %d vs %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, b[i], a[i])
			}
		}
	}
	eqU32 := func(name string, a, b []uint32) {
		if len(a) != len(b) {
			t.Fatalf("%s: len %d vs %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, b[i], a[i])
			}
		}
	}
	eqF32 := func(name string, a, b []float32) {
		if len(a) != len(b) {
			t.Fatalf("%s: len %d vs %d", name, len(b), len(a))
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("%s[%d] = %v, want %v (bitwise)", name, i, b[i], a[i])
			}
		}
	}
	eqI64("outIdx", want.outIdx, got.outIdx)
	eqU32("outAdj", want.outAdj, got.outAdj)
	eqF32("outW", want.outW, got.outW)
	eqI64("inIdx", want.inIdx, got.inIdx)
	eqU32("inAdj", want.inAdj, got.inAdj)
	eqF32("inW", want.inW, got.inW)
}

func TestMappedRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *Graph
	}{
		{"single-node", func(t *testing.T) *Graph {
			g, err := NewBuilder(1).Build(BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"no-edges", func(t *testing.T) *Graph {
			g, err := NewBuilder(17).Build(BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"tiny", func(t *testing.T) *Graph { return randomTestGraph(t, 5, 12, 1) }},
		{"small", func(t *testing.T) *Graph { return randomTestGraph(t, 64, 300, 2) }},
		{"medium", func(t *testing.T) *Graph { return randomTestGraph(t, 300, 2000, 3) }},
		{"wc-weights", func(t *testing.T) *Graph {
			rng := rand.New(rand.NewSource(4))
			b := NewBuilder(120)
			for i := 0; i < 900; i++ {
				b.AddEdge(uint32(rng.Intn(120)), uint32(rng.Intn(120)), 0)
			}
			g, err := b.Build(BuildOptions{Model: WeightedCascade})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			m := mappedTwin(t, g)
			requireSectionsEqual(t, g, m)
			// The mapped twin must answer the public API identically too.
			if m.NumNodes() != g.NumNodes() || m.NumEdges() != g.NumEdges() {
				t.Fatalf("mapped shape %d/%d, want %d/%d",
					m.NumNodes(), m.NumEdges(), g.NumNodes(), g.NumEdges())
			}
			gs, gerr := g.Stats()
			ms, merr := m.Stats()
			if gerr != nil || merr != nil || gs != ms {
				t.Fatalf("mapped stats %+v (%v), want %+v (%v)", ms, merr, gs, gerr)
			}
		})
	}
}

// TestMappedEdgeListRoundTrip is the issue's round-trip property:
// SaveEdgeList → LoadEdgeList → WriteMapped → OpenMapped must preserve the
// graph exactly. The edge-list text format uses shortest-round-trip %g, so
// even the float32 weights survive bitwise.
func TestMappedEdgeListRoundTrip(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		g := randomTestGraph(t, 80, 500, seed)
		var txt bytes.Buffer
		if err := g.SaveEdgeList(&txt); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadEdgeList(strings.NewReader(txt.String()), LoadOptions{Directed: true})
		if err != nil {
			t.Fatal(err)
		}
		m := mappedTwin(t, loaded)
		requireSectionsEqual(t, loaded, m)
	}
}

// TestMappedAccounting pins the resident/mapped byte split: a heap graph is
// all resident, a mapped graph (on platforms with real mmap) is all mapped,
// and Bytes() is the total either way.
func TestMappedAccounting(t *testing.T) {
	g := randomTestGraph(t, 100, 600, 7)
	if g.ResidentBytes() <= 0 || g.MappedBytes() != 0 || g.Mapped() {
		t.Fatalf("heap accounting: resident=%d mapped=%d", g.ResidentBytes(), g.MappedBytes())
	}
	if g.Bytes() != g.ResidentBytes() {
		t.Fatalf("heap Bytes %d != ResidentBytes %d", g.Bytes(), g.ResidentBytes())
	}
	m := mappedTwin(t, g)
	if m.Mapped() {
		if m.ResidentBytes() != 0 {
			t.Fatalf("mapped graph reports %d resident bytes", m.ResidentBytes())
		}
		if m.MappedBytes() < g.ResidentBytes() || !m.Mapped() {
			t.Fatalf("mapped bytes %d, want >= section bytes %d", m.MappedBytes(), g.ResidentBytes())
		}
		if m.Bytes() != m.MappedBytes() {
			t.Fatalf("mapped Bytes %d != MappedBytes %d", m.Bytes(), m.MappedBytes())
		}
	} else {
		// The no-mmap fallback reads the image onto the heap and says so.
		if m.ResidentBytes() <= 0 || m.MappedBytes() != 0 {
			t.Fatalf("fallback accounting: resident=%d mapped=%d", m.ResidentBytes(), m.MappedBytes())
		}
	}
}

// TestMappedClose: Close releases the mapping, is idempotent, and is a
// no-op on heap graphs.
func TestMappedClose(t *testing.T) {
	g := randomTestGraph(t, 30, 100, 9)
	if err := g.Close(); err != nil {
		t.Fatalf("heap Close: %v", err)
	}
	path := filepath.Join(t.TempDir(), "g.sasg")
	if err := g.WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestRewriteUnderMapping: writing another graph to the path of an open
// mapped graph leaves the open graph's sections as they were, whether the
// new file is longer (an in-place rewrite would show the new bytes) or
// shorter (an in-place truncation would fault a read past the new end).
func TestRewriteUnderMapping(t *testing.T) {
	a := randomTestGraph(t, 200, 1500, 21)
	path := filepath.Join(t.TempDir(), "g.sasg")
	if err := a.WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, b := range []*Graph{randomTestGraph(t, 400, 4000, 22), randomTestGraph(t, 20, 40, 23)} {
		if err := b.WriteMappedFile(path); err != nil {
			t.Fatal(err)
		}
		requireSectionsEqual(t, a, m)
		reopened, err := OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		requireSectionsEqual(t, b, reopened)
		reopened.Close()
	}
}

// openDecoded opens path the way a host that cannot map the file does: it
// sets hostLittleEndian to false for the call, so OpenMapped decodes the
// sections onto the heap, and restores it before returning.
func openDecoded(t *testing.T, path string) (*Graph, error) {
	t.Helper()
	saved := hostLittleEndian
	hostLittleEndian = false
	defer func() { hostLittleEndian = saved }()
	return OpenMapped(path)
}

// TestOpenMappedDecodePath: the decoded open of a .sasg file holds the same
// sections as the mapped open of it and as the graph it was written from,
// and is charged as heap.
func TestOpenMappedDecodePath(t *testing.T) {
	graphs := map[string]*Graph{
		"tiny":   randomTestGraph(t, 5, 12, 1),
		"medium": randomTestGraph(t, 300, 2000, 3),
	}
	single, err := NewBuilder(1).Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graphs["single-node"] = single
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.sasg")
			if err := g.WriteMappedFile(path); err != nil {
				t.Fatal(err)
			}
			mapped, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			decoded, err := openDecoded(t, path)
			if err != nil {
				t.Fatal(err)
			}
			requireSectionsEqual(t, mapped, decoded)
			requireSectionsEqual(t, g, decoded)
			if decoded.Mapped() {
				t.Fatal("decoded graph reports mapped")
			}
			if decoded.ResidentBytes() != g.ResidentBytes() || decoded.MappedBytes() != 0 {
				t.Fatalf("decoded accounting: resident=%d mapped=%d, want %d/0",
					decoded.ResidentBytes(), decoded.MappedBytes(), g.ResidentBytes())
			}
		})
	}
}
