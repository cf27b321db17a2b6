package graph

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// LoadOptions controls text edge-list parsing.
type LoadOptions struct {
	// Directed treats each line as one arc; when false each line adds both
	// arcs (the paper's treatment of Orkut/Friendster).
	Directed bool
	// DefaultWeight is used for lines without a third column.
	DefaultWeight float64
	// Relabel maps arbitrary non-negative ids to a dense range in first-seen
	// order. Without it, node ids must already be dense and NumNodes is
	// max(id)+1.
	Relabel bool
	// Build options applied after parsing.
	Build BuildOptions
}

// ErrParse reports a malformed edge-list line.
var ErrParse = errors.New("graph: parse error")

// LoadEdgeList parses a whitespace-separated edge list: "u v [w]" per line,
// '#' or '%' starting a comment. Returns the built graph.
func LoadEdgeList(r io.Reader, opt LoadOptions) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	b := NewBuilder(0)
	relabel := map[uint64]uint32{}
	// Without Relabel the raw id IS the dense node id and must fit uint32;
	// silently truncating an oversized id would alias two distinct nodes.
	mapID := func(raw uint64) (uint32, error) {
		if !opt.Relabel {
			if raw > math.MaxUint32 {
				return 0, fmt.Errorf("%w: node id %d exceeds uint32 range (use Relabel)", ErrParse, raw)
			}
			return uint32(raw), nil
		}
		if id, ok := relabel[raw]; ok {
			return id, nil
		}
		// The dense id space is uint32 too: past 2^32 distinct raw ids the
		// counter would wrap and alias nodes just as silently.
		if uint64(len(relabel)) > math.MaxUint32 {
			return 0, fmt.Errorf("%w: more than 2^32 distinct node ids", ErrParse)
		}
		id := uint32(len(relabel))
		relabel[raw] = id
		return id, nil
	}
	if opt.DefaultWeight == 0 {
		opt.DefaultWeight = 1
	}
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexAny(text, "#%"); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("%w: line %d: want 'u v [w]'", ErrParse, line)
		}
		ru, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrParse, line, err)
		}
		rv, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrParse, line, err)
		}
		w := opt.DefaultWeight
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrParse, line, err)
			}
		}
		u, err := mapID(ru)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		v, err := mapID(rv)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if opt.Directed {
			b.AddEdge(u, v, w)
		} else {
			b.AddUndirected(u, v, w)
		}
		if int(u)+1 > b.n {
			b.Grow(int(u) + 1)
		}
		if int(v)+1 > b.n {
			b.Grow(int(v) + 1)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b.n == 0 {
		return nil, ErrNoNodes
	}
	return b.Build(opt.Build)
}

// LoadEdgeListFile opens path and calls LoadEdgeList, decompressing when the
// path ends in ".gz" — the format SNAP distributes its datasets in, so the
// loader reads the original archives.
func LoadEdgeListFile(path string, opt LoadOptions) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, err
		}
		defer zr.Close()
		r = zr
	}
	return LoadEdgeList(r, opt)
}

// SaveEdgeList writes the graph as "u v w" lines.
func (g *Graph) SaveEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for u := 0; u < g.n; u++ {
		adj, ws := g.OutNeighbors(uint32(u))
		for i, v := range adj {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", u, v, ws[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SaveEdgeListFile writes a text edge list to path, gzip-compressing when the
// path ends in ".gz".
func (g *Graph) SaveEdgeListFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	var zw *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		zw = gzip.NewWriter(f)
		w = zw
	}
	if err := g.SaveEdgeList(w); err != nil {
		f.Close()
		return err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
