package graph

import (
	"bytes"
	"compress/gzip"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// These tests cover the io.go error paths the happy-path suites skip:
// truncated gzip archives, the text loader's uint32 id overflow, empty
// inputs, and duplicate edge lines.

func TestLoadEdgeListEmptyInput(t *testing.T) {
	for name, input := range map[string]string{
		"empty":         "",
		"comments-only": "# header\n% another\n\n   \n",
	} {
		if _, err := LoadEdgeList(strings.NewReader(input), LoadOptions{}); !errors.Is(err, ErrNoNodes) {
			t.Errorf("%s: want ErrNoNodes, got %v", name, err)
		}
	}
}

func TestLoadEdgeListOutOfRangeEndpoint(t *testing.T) {
	big := uint64(math.MaxUint32) + 1
	for name, input := range map[string]string{
		"oversized-source": "4294967296 1 0.5\n",
		"oversized-target": "1 4294967296 0.5\n",
	} {
		if _, err := LoadEdgeList(strings.NewReader(input), LoadOptions{Directed: true}); !errors.Is(err, ErrParse) {
			t.Errorf("%s: want ErrParse for id %d, got %v", name, big, err)
		}
	}
	// With Relabel, huge raw ids are legal: they map to a dense range.
	g, err := LoadEdgeList(strings.NewReader("4294967296 9999999999 0.5\n"),
		LoadOptions{Directed: true, Relabel: true})
	if err != nil {
		t.Fatalf("relabel of huge ids should succeed: %v", err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("relabel produced n=%d m=%d, want 2/1", g.NumNodes(), g.NumEdges())
	}
}

func TestLoadEdgeListDuplicateEdges(t *testing.T) {
	// Duplicate lines are merged by the builder; weights sum and clamp at 1
	// (the same semantics TestDuplicateEdgesMerged pins for the builder).
	input := "0 1 0.3\n0 1 0.4\n0 1 0.9\n1 2 0.2\n1 2 0.2\n"
	g, err := LoadEdgeList(strings.NewReader(input), LoadOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2 (duplicates merged)", g.NumEdges())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Fatalf("merged weight %v, want 1 (clamped)", w)
	}
	if w, _ := g.EdgeWeight(1, 2); math.Abs(w-0.4) > 1e-6 {
		t.Fatalf("merged weight %v, want 0.4", w)
	}
}

func TestLoadTruncatedGzip(t *testing.T) {
	// Build a valid gzip'd edge list, then cut it mid-stream: the gzip
	// reader hits an unexpected EOF and the loader must surface it instead
	// of returning a silently shortened graph.
	var full bytes.Buffer
	zw := gzip.NewWriter(&full)
	for i := 0; i < 2000; i++ {
		if _, err := zw.Write([]byte("0 1 0.5\n1 2 0.5\n")); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "truncated.txt.gz")
	if err := os.WriteFile(path, full.Bytes()[:full.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEdgeListFile(path, LoadOptions{Directed: true}); err == nil {
		t.Fatal("truncated gzip should fail to load")
	}
}
