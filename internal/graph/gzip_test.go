package graph

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestGzipRoundTrip(t *testing.T) {
	g := diamond(t)
	dir := t.TempDir()
	for _, name := range []string{"plain.txt", "packed.txt.gz"} {
		path := filepath.Join(dir, name)
		if err := g.SaveEdgeListFile(path); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		g2, err := LoadEdgeListFile(path, LoadOptions{Directed: true})
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: round trip changed size", name)
		}
		if w, _ := g2.EdgeWeight(0, 2); math.Abs(w-0.3) > 1e-6 {
			t.Fatalf("%s: weight %v", name, w)
		}
	}
}

func TestGzipBadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.gz")
	if err := writeFile(path, []byte("this is not gzip")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEdgeListFile(path, LoadOptions{Directed: true}); err == nil {
		t.Fatal("corrupt gzip should fail")
	}
	if _, err := LoadEdgeListFile(filepath.Join(dir, "missing.txt"), LoadOptions{}); err == nil {
		t.Fatal("missing file should fail")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
