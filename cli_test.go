package stopandstare

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles every cmd/* binary once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"imgen", "imstats", "imrun", "imeval", "imbench", "imtvm"} {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, msg)
		}
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// prefixedLine returns the first line of a tool's output that starts with
// label, or "".
func prefixedLine(out, label string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, label) {
			return line
		}
	}
	return ""
}

// TestCLIPipeline exercises the documented workflow end to end:
// generate → stats → run → eval → tvm → bench.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline is slow; skipped in -short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()
	graphFile := filepath.Join(work, "g.sasg")

	// imgen: preset at small scale, written as a mapped .sasg graph.
	out := run(t, filepath.Join(bin, "imgen"),
		"-preset", "nethept", "-scale", "0.2", "-seed", "5", "-out", graphFile)
	if !strings.Contains(out, "wrote") || !strings.Contains(out, "lt-valid=true") {
		t.Fatalf("imgen output: %s", out)
	}

	// imstats: readable statistics, with the graph on mapped storage.
	out = run(t, filepath.Join(bin, "imstats"), "-graph", graphFile)
	if !strings.Contains(out, "nodes:") || !strings.Contains(out, "lt-valid:      true") ||
		!strings.Contains(out, "storage:       mapped") {
		t.Fatalf("imstats output: %s", out)
	}
	// The same preset as a gzipped text edge list reads back through
	// imstats -format text with the same shape.
	textFile := filepath.Join(work, "g.txt.gz")
	run(t, filepath.Join(bin, "imgen"),
		"-preset", "nethept", "-scale", "0.2", "-seed", "5", "-text", "-out", textFile)
	textOut := run(t, filepath.Join(bin, "imstats"), "-graph", textFile, "-format", "text")
	if edges := prefixedLine(out, "edges:"); edges == "" || prefixedLine(textOut, "edges:") != edges {
		t.Fatalf("imstats on %s: %s\nwant the edges line of: %s", textFile, textOut, out)
	}

	// imrun: D-SSA with evaluation.
	out = run(t, filepath.Join(bin, "imrun"),
		"-graph", graphFile, "-algo", "dssa", "-k", "10", "-model", "LT",
		"-eps", "0.2", "-seed", "3", "-eval", "1000", "-certify")
	if !strings.Contains(out, "seeds: ") || !strings.Contains(out, "spread(MC):") {
		t.Fatalf("imrun output: %s", out)
	}
	if !strings.Contains(out, "certified:") {
		t.Fatalf("imrun -certify output: %s", out)
	}
	// Extract the seed list for imeval.
	seedLine := strings.TrimPrefix(prefixedLine(out, "seeds: "), "seeds: ")
	if seedLine == "" {
		t.Fatalf("no seeds line in imrun output: %s", out)
	}

	// imeval: score the same seeds.
	out = run(t, filepath.Join(bin, "imeval"),
		"-graph", graphFile, "-model", "LT", "-seeds", seedLine, "-runs", "1000")
	if !strings.Contains(out, "spread:") {
		t.Fatalf("imeval output: %s", out)
	}

	// imtvm: synthetic topic, D-SSA.
	out = run(t, filepath.Join(bin, "imtvm"),
		"-graph", graphFile, "-algo", "dssa", "-k", "5", "-eps", "0.3",
		"-eval", "500")
	if !strings.Contains(out, "benefit (MC") {
		t.Fatalf("imtvm output: %s", out)
	}

	// imtvm cost-aware mode: -budget is the one-entry -budgets sweep, one
	// "cost-aware:" line per budget.
	out = run(t, filepath.Join(bin, "imtvm"),
		"-graph", graphFile, "-budget", "10", "-eps", "0.4", "-eval", "0")
	if strings.Count(out, "cost-aware:") != 1 || !strings.Contains(out, "of 10.0") {
		t.Fatalf("imtvm budgeted output: %s", out)
	}
	out = run(t, filepath.Join(bin, "imtvm"),
		"-graph", graphFile, "-budgets", "5,10", "-eps", "0.4", "-eval", "0")
	if strings.Count(out, "cost-aware:") != 2 || !strings.Contains(out, "of 5.0") ||
		!strings.Contains(out, "of 10.0") {
		t.Fatalf("imtvm -budgets output: %s", out)
	}
	if out, err := exec.Command(filepath.Join(bin, "imtvm"),
		"-graph", graphFile, "-budget", "NaN", "-eval", "0").CombinedOutput(); err == nil {
		t.Fatalf("imtvm -budget NaN succeeded: %s", out)
	}

	// imbench: registry listing plus one quick experiment.
	out = run(t, filepath.Join(bin, "imbench"), "-list")
	if !strings.Contains(out, "table3") || !strings.Contains(out, "fig8") {
		t.Fatalf("imbench -list output: %s", out)
	}
	out = run(t, filepath.Join(bin, "imbench"), "-exp", "table4", "-quick")
	if !strings.Contains(out, "topic") {
		t.Fatalf("imbench table4 output: %s", out)
	}
}

// TestCLIErrors verifies the tools fail cleanly on bad input.
func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline is slow; skipped in -short mode")
	}
	bin := buildTools(t)
	cases := [][]string{
		{filepath.Join(bin, "imgen")},                                // missing -out
		{filepath.Join(bin, "imgen"), "-out", "x.sasg"},              // missing generator
		{filepath.Join(bin, "imrun"), "-graph", "/nonexistent.sasg"}, // bad file
		{filepath.Join(bin, "imstats")},                              // missing -graph
		{filepath.Join(bin, "imeval"), "-graph", "x", "-seeds", ""},  // missing seeds
		{filepath.Join(bin, "imbench"), "-exp", "bogus"},             // unknown experiment
	}
	for _, c := range cases {
		cmd := exec.Command(c[0], c[1:]...)
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Fatalf("%v should have failed:\n%s", c, out)
		}
	}
}
