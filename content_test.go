package stopandstare_test

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"stopandstare"
	"stopandstare/internal/graph"
)

// Sections of a .sasg file, in canonical order (see internal/graph/sasg.go).
const (
	secOutIdx = iota
	secOutAdj
	secOutW
	secInIdx
	secInAdj
	secInW
)

// corruptSasg writes g as a .sasg file with elements i, i+1, … of one
// section overwritten by vals (little-endian, one element wide each) and
// returns its path. The file still passes both opens' structural checks.
func corruptSasg(t *testing.T, g *stopandstare.Graph, section int, i int64, vals ...[]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corrupt.sasg")
	if err := g.WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(binary.LittleEndian.Uint64(data[32+16*section:]))
	for k, val := range vals {
		copy(data[off+(i+int64(k))*int64(len(val)):], val)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func u32(v uint32) []byte  { return binary.LittleEndian.AppendUint32(nil, v) }
func i64(v int64) []byte   { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
func f32(v float32) []byte { return u32(math.Float32bits(v)) }

// requireContentError fails unless err is the typed content error for rule
// (nil: an offset out of order, which matches no rule sentinel).
func requireContentError(t *testing.T, what string, err, rule error) {
	t.Helper()
	var ce *graph.ContentError
	if !errors.Is(err, stopandstare.ErrBadGraphContent) || !errors.As(err, &ce) {
		t.Fatalf("%s: got %v, want a graph content error", what, err)
	}
	if rule != nil && !errors.Is(err, rule) {
		t.Fatalf("%s: got %v, want one matching %v", what, err, rule)
	}
}

// TestCorruptGraphContent takes a valid Erdős–Rényi .sasg (n = 200,
// m = 1000), changes one word of it as each case says, and runs every entry
// point that reads the changed section. Each must return the typed content
// error: never panic, in the caller or in a sampler goroutine, and never
// answer from the bad content. Each entry point opens the file afresh, so
// each one runs the check itself rather than reading another's result off
// the graph.
func TestCorruptGraphContent(t *testing.T) {
	g, err := stopandstare.GenerateErdosRenyi(200, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.NumNodes())
	for v := range weights {
		weights[v] = 1
	}
	opt := stopandstare.Options{K: 5, Epsilon: 0.3, Seed: 3, Workers: 2, MCRuns: 20}
	maximize := func(model stopandstare.Model, algo stopandstare.Algorithm) func(*stopandstare.Graph) error {
		return func(g *stopandstare.Graph) error {
			_, err := stopandstare.Maximize(g, model, algo, opt)
			return err
		}
	}
	query := func(model stopandstare.Model, algo stopandstare.Algorithm) func(*stopandstare.Graph) error {
		return func(g *stopandstare.Graph) error {
			sess, err := stopandstare.NewSession(g, model, stopandstare.SessionOptions{Seed: 3, Workers: 2})
			if err != nil {
				return err
			}
			_, err = sess.Maximize(stopandstare.Query{Algorithm: algo, K: 5, Epsilon: 0.3})
			return err
		}
	}
	// Every consumer of the reverse sections under model.
	reverse := func(model stopandstare.Model) map[string]func(*stopandstare.Graph) error {
		return map[string]func(*stopandstare.Graph) error{
			"Maximize/dssa":  maximize(model, stopandstare.DSSA),
			"Maximize/ssa":   maximize(model, stopandstare.SSA),
			"Maximize/imm":   maximize(model, stopandstare.IMM),
			"Maximize/tim":   maximize(model, stopandstare.TIM),
			"Maximize/tim+":  maximize(model, stopandstare.TIMPlus),
			"Maximize/borgs": maximize(model, stopandstare.Borgs),
			"Session/dssa":   query(model, stopandstare.DSSA),
			"Session/ssa":    query(model, stopandstare.SSA),
			"CertifySpread": func(g *stopandstare.Graph) error {
				_, err := stopandstare.CertifySpread(g, model, []uint32{1, 2}, 0.3, 0.1, 3)
				return err
			},
			"MaximizeTargeted/dssa": func(g *stopandstare.Graph) error {
				_, err := stopandstare.MaximizeTargeted(g, model, weights, stopandstare.DSSA, opt)
				return err
			},
			"MaximizeTargeted/tim+": func(g *stopandstare.Graph) error {
				_, err := stopandstare.MaximizeTargeted(g, model, weights, stopandstare.TIMPlus, opt)
				return err
			},
			"MaximizeBudgeted": func(g *stopandstare.Graph) error {
				_, err := stopandstare.MaximizeBudgeted(g, model, weights,
					stopandstare.BudgetedOptions{Budget: 5, Epsilon: 0.3, Seed: 3, Workers: 2})
				return err
			},
		}
	}
	forward := map[string]func(*stopandstare.Graph) error{
		"EvaluateSpread/IC": func(g *stopandstare.Graph) error {
			_, _, err := stopandstare.EvaluateSpread(g, stopandstare.IC, []uint32{1, 2}, 100, 3, 2)
			return err
		},
		"EvaluateSpread/LT": func(g *stopandstare.Graph) error {
			_, _, err := stopandstare.EvaluateSpread(g, stopandstare.LT, []uint32{1, 2}, 100, 3, 2)
			return err
		},
		"EvaluateBenefit": func(g *stopandstare.Graph) error {
			_, _, err := stopandstare.EvaluateBenefit(g, stopandstare.IC, weights, []uint32{1, 2}, 100, 3, 2)
			return err
		},
		"Maximize/celf":   maximize(stopandstare.IC, stopandstare.CELF),
		"Maximize/celf++": maximize(stopandstare.IC, stopandstare.CELFPlusPlus),
	}
	// The LT plan shares one alias table among the nodes of one in-degree
	// (the graph is weighted cascade), so these corrupt a node whose
	// in-degree already has a table: its checks must still run.
	nan := f32(float32(math.NaN()))
	sharedNaN, sharedSum := laterOfDegree(t, g, 1), laterOfDegree(t, g, 2)
	for _, tc := range []struct {
		name    string
		section int
		index   int64
		vals    [][]byte
		rule    error
		runs    map[string]func(*stopandstare.Graph) error
	}{
		{"inAdj-is-2pow30", secInAdj, 500, [][]byte{u32(1 << 30)}, graph.ErrBadEndpoint, reverse(stopandstare.IC)},
		{"inIdx50-is-2pow40", secInIdx, 50, [][]byte{i64(1 << 40)}, nil, reverse(stopandstare.IC)},
		{"inW-is-NaN-IC", secInW, 500, [][]byte{nan}, graph.ErrBadWeight, reverse(stopandstare.IC)},
		{"inW-is-NaN-LT", secInW, 500, [][]byte{nan}, graph.ErrBadWeight, reverse(stopandstare.LT)},
		{"inW-sum-over-1-LT", secInW, 500, [][]byte{f32(0.9)}, graph.ErrLTViolation, reverse(stopandstare.LT)},
		{"outW-is-7", secOutW, 500, [][]byte{f32(7)}, graph.ErrBadWeight, forward},
		{"inW-is-NaN-LT-shared", secInW, sharedNaN, [][]byte{nan}, graph.ErrBadWeight, reverse(stopandstare.LT)},
		{"inW-two-0.9-LT-shared", secInW, sharedSum, [][]byte{f32(0.9), f32(0.9)}, graph.ErrLTViolation, reverse(stopandstare.LT)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := corruptSasg(t, g, tc.section, tc.index, tc.vals...)
			for name, run := range tc.runs {
				cg, err := stopandstare.OpenGraphFile(path)
				if err != nil {
					t.Fatalf("the corrupt file fails open: %v", err)
				}
				requireContentError(t, name, run(cg), tc.rule)
				// The error is kept on the graph: a second call fails the
				// same way without compiling or checking again.
				requireContentError(t, name+" (again)", run(cg), tc.rule)
				cg.Close()
			}
		})
	}
}

// laterOfDegree returns the first in-edge of the second node of g with
// in-degree d: a node whose degree class already has an LT table.
func laterOfDegree(t *testing.T, g *stopandstare.Graph, d int) int64 {
	t.Helper()
	idx, _, _ := g.ReverseCSR()
	seen := false
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(uint32(v)) != d {
			continue
		}
		if seen {
			return idx[v]
		}
		seen = true
	}
	t.Fatalf("fewer than two nodes of in-degree %d", d)
	return 0
}

// TestStatsCorruptOffsets opens a .sasg whose inIdx[50] is 2⁴⁰: Stats and
// CheckLT, which read the reverse offsets directly, return the typed
// content error instead of indexing past the weights.
func TestStatsCorruptOffsets(t *testing.T) {
	g, err := stopandstare.GenerateErdosRenyi(200, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := stopandstare.OpenGraphFile(corruptSasg(t, g, secInIdx, 50, i64(1<<40)))
	if err != nil {
		t.Fatalf("the corrupt file fails open: %v", err)
	}
	defer cg.Close()
	_, err = cg.Stats()
	requireContentError(t, "Stats", err, nil)
	requireContentError(t, "CheckLT", cg.CheckLT(), nil)
}
