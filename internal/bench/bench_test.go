package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"stopandstare/internal/diffusion"
)

func TestConfigNormalize(t *testing.T) {
	c := Config{}.Normalize()
	if c.Epsilon != 0.1 || c.Workers < 1 || c.ScaleMul != 1 || c.MCRuns != 10000 || c.Seed == 0 {
		t.Fatalf("bad defaults: %+v", c)
	}
	q := Config{Quick: true}.Normalize()
	if q.MCRuns != 1000 {
		t.Fatalf("quick MCRuns %d", q.MCRuns)
	}
}

func TestKSweep(t *testing.T) {
	c := Config{Quick: true}.Normalize()
	ks := c.KSweep(10000)
	if len(ks) == 0 || ks[0] != 1 {
		t.Fatalf("sweep %v", ks)
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatalf("sweep not increasing: %v", ks)
		}
	}
	// Overrides are clamped and deduped.
	c.KValues = []int{0, 5, 5, 999999}
	ks = c.KSweep(100)
	want := []int{1, 5, 100}
	if len(ks) != len(want) {
		t.Fatalf("override sweep %v", ks)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("override sweep %v want %v", ks, want)
		}
	}
}

func TestLoadDatasetQuick(t *testing.T) {
	d, err := LoadDataset("nethept", Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Graph.NumNodes() == 0 || d.Scale <= 0 {
		t.Fatalf("bad dataset %+v", d)
	}
	if _, err := LoadDataset("bogus", Config{}); err == nil {
		t.Fatal("unknown dataset should fail")
	}
}

func TestRunIMAllAlgos(t *testing.T) {
	d, err := LoadDataset("nethept", Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Quick: true, Workers: 2, MCRuns: 500}
	for _, algo := range []AlgoID{AlgoDSSA, AlgoSSA, AlgoIMM, AlgoTIM, AlgoTIMPlus, AlgoDegree, AlgoRandom} {
		m, err := RunIM(d, diffusion.LT, algo, 10, cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(m.Seeds) != 10 || m.Spread <= 0 {
			t.Fatalf("%s: degenerate metrics %+v", algo, m)
		}
	}
	if _, err := RunIM(d, diffusion.LT, AlgoID("bogus"), 10, cfg); err == nil {
		t.Fatal("unknown algo should fail")
	}
}

// TestRunIMSampleCountsPinned pins what imbench reports for the paper's
// Table 3 algorithms on the quick enron preset (LT): exact RR-set counts and
// seed sets. Counts are deterministic in the seed at any worker count, so a
// change to the sampling stream, a stopping rule or the path RunIM takes
// moves a number here visibly. It also pins the default-split row of the
// ε-split ablation as imbench prints it.
func TestRunIMSampleCountsPinned(t *testing.T) {
	d, err := LoadDataset("enron", Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	top20 := []uint32{0x2fe, 0x44f, 0xdae, 0x596, 0x2a0, 0xc71, 0x8db, 0x357, 0x6, 0x43a,
		0xca, 0xb01, 0x8cd, 0xabc, 0x3ee, 0xc66, 0xb2c, 0xd0f, 0xc4b, 0x542}
	for _, want := range []struct {
		algo    AlgoID
		k       int
		samples int64
		seeds   []uint32
	}{
		{AlgoDSSA, 1, 39952, []uint32{0x2fe}},
		{AlgoSSA, 1, 242159, []uint32{0x2fe}},
		{AlgoIMM, 1, 38793, []uint32{0x2fe}},
		{AlgoDSSA, 20, 19752, top20},
		{AlgoSSA, 20, 16080, top20},
		{AlgoIMM, 20, 40926, []uint32{0x2fe, 0xdae, 0x44f, 0x2a0, 0x596, 0x6, 0x43a, 0x357, 0x8db, 0xc71,
			0xca, 0xabc, 0x8cd, 0x3ee, 0xb01, 0xc66, 0xb2c, 0x542, 0xd0f, 0x8fd}},
	} {
		m, err := RunIM(d, diffusion.LT, want.algo, want.k, Config{Quick: true, Workers: 2, MCRuns: 100})
		if err != nil {
			t.Fatalf("%s k=%d: %v", want.algo, want.k, err)
		}
		if m.Samples != want.samples || !slices.Equal(m.Seeds, want.seeds) {
			t.Fatalf("%s k=%d: %d RR sets, seeds %#v; want %d, %#v",
				want.algo, want.k, m.Samples, m.Seeds, want.samples, want.seeds)
		}
	}

	e, _ := Find("ablation-eps")
	var buf bytes.Buffer
	if err := e.Run(Config{Quick: true, Workers: 2}, &buf); err != nil {
		t.Fatal(err)
	}
	var row []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "default(19-20)") {
			row = strings.Split(line, "  ")
		}
	}
	var cells []string
	for _, c := range row {
		if c = strings.TrimSpace(c); c != "" {
			cells = append(cells, c)
		}
	}
	// label, rr-sets, verify-sets, time, influence
	if len(cells) != 5 || cells[1] != "36 K" || cells[2] != "18 K" || cells[4] != "1023" {
		t.Fatalf("ablation-eps default row %q, want rr-sets 36 K, verify-sets 18 K, influence 1023:\n%s",
			cells, buf.String())
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	// The artifact ids of the paper's evaluation (§7) and the three ablations.
	want := []string{"table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"table3", "table4", "fig8", "ablation-eps", "ablation-theta", "ablation-certify"}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Fatalf("experiment %q missing from registry", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(IDs()), len(want))
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find should reject unknown ids")
	}
}

func TestRunAllUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll([]string{"nope"}, Config{Quick: true}, &buf); err == nil {
		t.Fatal("unknown id should fail")
	}
}

func TestTable2Experiment(t *testing.T) {
	e, _ := Find("table2")
	var buf bytes.Buffer
	if err := e.Run(Config{Quick: true, Workers: 2}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"nethept", "friendster", "lt-valid"} {
		if !strings.Contains(out, name) {
			t.Fatalf("table2 output missing %q:\n%s", name, out)
		}
	}
}

func TestTable4Experiment(t *testing.T) {
	e, _ := Find("table4")
	var buf bytes.Buffer
	if err := e.Run(Config{Quick: true, Workers: 2}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "topic") {
		t.Fatalf("table4 output:\n%s", buf.String())
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Headers: []string{"a", "bb"},
		Notes:   []string{"note"},
	}
	tb.AddRow("x", 1)
	tb.AddRow(int64(1500000), 2*time.Second)
	tb.AddRow(3.14159, int64(12345))
	var buf bytes.Buffer
	if err := tb.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "# note") {
		t.Fatalf("format output:\n%s", out)
	}
	if !strings.Contains(out, "1.5 M") {
		t.Fatalf("count formatting missing:\n%s", out)
	}
	if !strings.Contains(out, "2.00 s") {
		t.Fatalf("duration formatting missing:\n%s", out)
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := map[int64]string{
		999:        "999",
		15000:      "15 K",
		2500000:    "2.5 M",
		3000000000: "3.0 G",
	}
	for v, want := range cases {
		if got := formatCount(v); got != want {
			t.Fatalf("formatCount(%d) = %q want %q", v, got, want)
		}
	}
	if formatBytes(2048) != "2.00 KB" {
		t.Fatalf("formatBytes: %s", formatBytes(2048))
	}
	if formatBytes(3<<20) != "3.00 MB" {
		t.Fatalf("formatBytes: %s", formatBytes(3<<20))
	}
	durs := map[time.Duration]string{
		500 * time.Microsecond: "500 µs",
		30 * time.Millisecond:  "30 ms",
		90 * time.Minute:       "1.50 h",
	}
	for d, want := range durs {
		if got := formatDuration(d); got != want {
			t.Fatalf("formatDuration(%v) = %q want %q", d, got, want)
		}
	}
}

func TestHashNameStable(t *testing.T) {
	if hashName("enron") != hashName("enron") {
		t.Fatal("hashName not deterministic")
	}
	if hashName("enron") == hashName("orkut") {
		t.Fatal("hashName collision on preset names")
	}
}

func TestAblationCertifyExperiment(t *testing.T) {
	e, ok := Find("ablation-certify")
	if !ok {
		t.Fatal("ablation-certify not registered")
	}
	var buf bytes.Buffer
	if err := e.Run(Config{Quick: true, Workers: 2, MCRuns: 500}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "certificate") {
		t.Fatalf("output:\n%s", buf.String())
	}
}
