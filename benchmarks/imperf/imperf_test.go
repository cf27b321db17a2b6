package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	ss "stopandstare"
)

func tinyConfig(t *testing.T, workload string, seed uint64, trace bool) config {
	t.Helper()
	dir := t.TempDir()
	return config{workload: workload, seed: seed, seconds: 0.05, trace: trace, scale: "tiny",
		workdir: dir, traceOut: filepath.Join(dir, "spans.jsonl"), setupReps: 2, nproc: 2}
}

var workloadNames = []string{"cold_sparse", "warm_stream", "serve_mixed", "tier_recover"}

// Every declared metric is printed exactly once, with its unit and a name the
// driver accepts, and the JSON line carries exactly the declared set; no
// operation fails.
func TestEveryDeclaredMetricIsPrintedOnce(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := run(tinyConfig(t, w, 1, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d failed %d: %v", w, trace, rep.attempted, rep.failed, rep.notes)
			}
			var buf bytes.Buffer
			if err := rep.write(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			decls := endToEnd
			if trace {
				decls = perLayer
			}
			for _, d := range decls {
				if !name.MatchString(d.name) {
					t.Errorf("metric name %q is not accepted by the driver", d.name)
				}
				n := 0
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) == 3 && f[0] == d.name && f[2] == d.unit {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s trace=%v: %s printed %d times with unit %s", w, trace, d.name, n, d.unit)
				}
			}
			var out struct {
				Correct   bool                  `json:"correct"`
				Attempted int                   `json:"attempted"`
				Failed    int                   `json:"failed"`
				Metrics   map[string]jsonMetric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w, trace, err)
			}
			if !out.Correct || len(out.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: correct=%v, %d metrics in the JSON line, %d declared", w, trace, out.Correct, len(out.Metrics), len(decls))
			}
			if !trace && out.Metrics["rr_sets"].Value <= 0 {
				t.Errorf("%s: rr_sets = %v", w, out.Metrics["rr_sets"].Value)
			}
		}
	}
}

// rr_sets repeats exactly: at one seed, and — because a seed only reorders a
// fixed multiset of queries — at another seed too, while the order differs.
func TestRRSetsRepeat(t *testing.T) {
	var got []float64
	for _, seed := range []uint64{1, 1, 2} {
		rep, err := run(tinyConfig(t, "warm_stream", seed, false))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rep.values["rr_sets"])
	}
	if got[0] != got[1] || got[0] != got[2] || got[0] == 0 {
		t.Errorf("rr_sets %v: want one non-zero value at every seed", got)
	}
}

// A tier_recover rep whose session did not recover the snapshot gives the same
// answers cold, so only the harness's own assertions can tell: both must count
// as failed operations.
func TestRecoverRepFailsWhenNothingWasRecovered(t *testing.T) {
	w, err := specByName("tier_recover", "tiny", 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(w, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.setup(); err != nil {
		t.Fatal(err)
	}
	sched := w.schedule(1)
	rep, err := e.runRep(modeLive, sched)
	if err != nil || len(rep.errs) != 0 {
		t.Fatalf("rep over the pristine snapshot: %v %v", err, rep.errs)
	}
	if err := os.RemoveAll(e.recover.pristine); err != nil {
		t.Fatal(err)
	}
	rep, err = e.runRep(modeLive, sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.errs) != 2 {
		t.Errorf("rep without a snapshot: want the recovered-count and the warm-answer failures, got %q", rep.errs)
	}
	var c checker
	c.reps("rep", sched, rep, []*repResult{rep})
	if c.failed != 2 {
		t.Errorf("checker counted %d failed operations, want 2", c.failed)
	}
}

func TestScheduleIsSeededOrderOfFixedMultiset(t *testing.T) {
	all, err := specs("full", 2)
	if err != nil {
		t.Fatal(err)
	}
	key := func(s [][]query) []string {
		var out []string
		for c := range s {
			for _, q := range s[c] {
				out = append(out, q.String())
			}
		}
		return out
	}
	for _, w := range all {
		a, a2, b := key(w.schedule(1)), key(w.schedule(1)), key(w.schedule(2))
		if !reflect.DeepEqual(a, a2) {
			t.Errorf("%s: the same seed gave two schedules", w.name)
		}
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same order", w.name)
		}
		sort.Strings(a)
		sort.Strings(b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 ask different multisets of queries", w.name)
		}
	}
}

// tracedSession must answer exactly as stopandstare.Session does for a mixed
// SSA / D-SSA stream — resident and with a spill budget — so the wrapper the
// ledger is timed through cannot drift from the session it stands for; and
// the self times of a query's spans must sum to the query span.
func TestTracedSessionMatchesSession(t *testing.T) {
	g, err := ss.GeneratePreset("nethept", 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	stream := []ss.Query{
		{K: 8, Epsilon: 0.2}, {K: 3, Epsilon: 0.2}, {K: 8, Epsilon: 0.2, Algorithm: ss.SSA},
		{K: 20, Epsilon: 0.15}, {K: 8, Epsilon: 0.2}, {K: 1, Epsilon: 0.15, Algorithm: ss.SSA}, {K: 3, Epsilon: 0.1},
	}
	for _, model := range []ss.Model{ss.IC, ss.LT} {
		for _, budget := range []int64{0, 64 << 10} {
			opt := ss.SessionOptions{Seed: 9, Workers: 2, SpillBudgetBytes: budget, SpillDir: t.TempDir()}
			live, err := ss.NewSession(g, model, opt)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			pt := newPassTrace(rec)
			traced, err := newTracedSession(pt, g, model, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range stream {
				want, err := live.Maximize(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := traced.Maximize(q)
				if err != nil {
					t.Fatal(err)
				}
				if !answerOf(got).same(answerOf(want)) || got.Warm != want.Warm || got.HitCap != want.HitCap {
					t.Errorf("%v budget %d %+v: traced %+v, session %+v", model, budget, q, answerOf(got), answerOf(want))
				}
			}
			pt.endPass()
			traced.finish()
			if budget > 0 && pt.cnt.spilledBytes == 0 {
				t.Errorf("%v: a %d-byte budget spilled nothing", model, budget)
			}

			_, byQuery := rec.selfTimes(0, rec.len())
			queries := 0
			for _, s := range rec.spans {
				if s.Name != spanQuery {
					continue
				}
				queries++
				if d := float64(s.End-s.Start) / 1e9; math.Abs(byQuery[s.Query]-d) > 1e-9 {
					t.Errorf("query %d: layer self times sum to %.9fs, the query span is %.9fs", s.Query, byQuery[s.Query], d)
				}
			}
			if queries != len(stream) {
				t.Errorf("%d query spans for %d queries", queries, len(stream))
			}
			self, _ := rec.selfTimes(0, rec.len())
			var sum float64
			for _, s := range self {
				sum += s
			}
			if pass := rec.spans[pt.pass-1]; math.Abs(sum-float64(pass.End-pass.Start)/1e9) > 1e-9 {
				t.Errorf("layers sum to %.9fs, the pass span is %.9fs", sum, float64(pass.End-pass.Start)/1e9)
			}
		}
		ss.DropCachedPlans(g)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %v %v median %v", q1, q3, median(xs))
	}
	// statistics.quantiles([3.1, 2.9, 3.0, 3.4, 2.8], n=4) == [2.85, 3.0, 3.25]
	q1, q3 = quartiles([]float64{3.1, 2.9, 3.0, 3.4, 2.8})
	if math.Abs(q1-2.85) > 1e-12 || math.Abs(q3-3.25) > 1e-12 {
		t.Errorf("quartiles %v %v", q1, q3)
	}
	if got := nearestRank(xs, 90); got != 9 {
		t.Errorf("nearest-rank p90 = %v", got)
	}
	if got := nearestRank(xs, 50); got != 5 {
		t.Errorf("nearest-rank p50 = %v", got)
	}
}

// BENCHMARK.json and the tables in metrics.go and workload.go say the same.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json is not beside the benchmark:", err)
	}
	type m struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	all, err := specs("full", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(all) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in specs", len(bj.Workloads), len(all))
	}
	for i, w := range all {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, specs %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	check := func(what string, got []m, want []decl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d in BENCHMARK.json, %d declared", what, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better() {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], declared %s [%s, %s]", what, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better())
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the declared %v", what, d.name, d.bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}
