package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// decl declares one metric. BENCHMARK.json lists the same names, units and
// bounds; a self-test keeps the two in step.
type decl struct {
	name  string
	unit  string
	bound float64 // end-to-end only: the share by which it may worsen
	// higher marks the few metrics where more is better (rates, shares of
	// reused work); everything else is a cost.
	higher bool
}

func (d decl) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// endToEnd are the metrics an untraced run reports, all lower-is-better. The
// timing bounds are the widest the driver takes, because a bound has to be
// three times the spread between runs and this class of machine does not hold
// a timing closer than that (README, Reference numbers). rr_sets is an exact
// count: its bound is below one RR set in a billion, which is 0 written as a
// positive number.
var endToEnd = []decl{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "run_s", unit: "s", bound: 0.25},
	{name: "query_p50_ms", unit: "ms", bound: 0.25},
	{name: "query_p90_ms", unit: "ms", bound: 0.25},
	{name: "first_answer_ms", unit: "ms", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.25},
	{name: "rr_sets", unit: "count", bound: 1e-9},
}

// perLayer are the metrics a traced run reports. Every workload prints all of
// them; a layer a workload does not touch reads 0.
var perLayer = []decl{
	{name: "graph.generate_s", unit: "s"},
	{name: "graph.write_sasg_s", unit: "s"},
	{name: "graph.open_s", unit: "s"},
	{name: "graph.mapped_mb", unit: "MB"},
	{name: "ris.plan_compile_s", unit: "s"},
	{name: "ris.plan_mb", unit: "MB"},
	{name: "ris.generate_s", unit: "s"},
	{name: "ris.generate_calls", unit: "count"},
	{name: "ris.generate_rr_sets", unit: "count"},
	{name: "ris.generate_items", unit: "count"},
	{name: "ris.generate_rr_per_s", unit: "1/s", higher: true},
	{name: "ris.store_mb", unit: "MB"},
	{name: "ris.bytes_per_rr", unit: "B"},
	{name: "ris.generate_rr_per_s.w1", unit: "1/s", higher: true},
	{name: "ris.generate_rr_per_s.wN", unit: "1/s", higher: true},
	{name: "ris.generate_rr_per_s.sharded2", unit: "1/s", higher: true},
	{name: "ris.generate_rr_per_s.remote2", unit: "1/s", higher: true},
	{name: "ris.generate_scaling_eff", unit: "ratio", higher: true},
	{name: "ris.remote_wire_mb", unit: "MB"},
	{name: "ris.coverage_s", unit: "s"},
	{name: "ris.coverage_calls", unit: "count"},
	{name: "ris.recover_s", unit: "s"},
	{name: "ris.recovered_rr_sets", unit: "count", higher: true},
	{name: "ris.spill_s", unit: "s"},
	{name: "ris.spilled_mb", unit: "MB"},
	{name: "ris.resident_mb", unit: "MB"},
	{name: "ris.persist_s", unit: "s"},
	{name: "ris.snapshot_mb", unit: "MB"},
	{name: "maxcover.solve_s", unit: "s"},
	{name: "maxcover.solve_calls", unit: "count"},
	{name: "maxcover.scanned_rr_sets", unit: "count"},
	{name: "maxcover.rescans", unit: "count"},
	{name: "core.self_s", unit: "s"},
	{name: "core.iterations", unit: "count"},
	{name: "core.verify_rr_sets", unit: "count"},
	{name: "core.hit_cap", unit: "count"},
	{name: "baselines.imm_solve_s", unit: "s"},
	{name: "baselines.imm_rr_sets", unit: "count"},
	{name: "baselines.imm_over_dssa_rr_sets", unit: "ratio", higher: true},
	{name: "baselines.imm_over_dssa_time", unit: "ratio", higher: true},
	{name: "session.warm_share", unit: "ratio", higher: true},
	{name: "session.growths", unit: "count"},
	{name: "session.solvers", unit: "count"},
	{name: "trace.pass_s", unit: "s"},
	{name: "trace.dssa_s", unit: "s"},
	{name: "trace.ssa_s", unit: "s"},
	{name: "trace.dssa_generate_share", unit: "ratio"},
	{name: "trace.ssa_core_share", unit: "ratio"},
	{name: "trace.generate_share", unit: "ratio"},
	{name: "trace.solve_share", unit: "ratio"},
	{name: "trace.overhead_share", unit: "ratio"},
	{name: "serving.overhead_ms_p50", unit: "ms"},
	{name: "serving.http_ms_p50", unit: "ms"},
	{name: "serving.latency_p99_ms", unit: "ms"},
	{name: "serving.latency_samples", unit: "count"},
	{name: "serving.executed", unit: "count"},
	{name: "serving.coalesced", unit: "count", higher: true},
	{name: "serving.rejected_429", unit: "count"},
	{name: "serving.timeout_503", unit: "count"},
	{name: "serving.evictions", unit: "count"},
	{name: "serving.spills", unit: "count"},
}

// report is what one run prints: text lines for a reader, then one JSON line
// for the driver.
type report struct {
	decls  []decl
	values map[string]float64
	info   []string           // stamp and sizes, printed first
	spread map[string]float64 // <name>.iqr_share of every timing, text only
	checker
}

func newReport(decls []decl) *report {
	return &report{decls: decls, values: map[string]float64{}, spread: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setTimed sets a timing to the median over reps and records its spread.
func (r *report) setTimed(name string, scale float64, perRep []float64) {
	r.values[name] = median(perRep) * scale
	r.spread[name+".iqr_share"] = iqrShare(perRep)
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the report. The last line is the driver's JSON object with
// exactly the declared metrics.
func (r *report) write(w io.Writer) error {
	for _, l := range r.info {
		fmt.Fprintln(w, l)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range r.decls {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "%-34s %s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		out.Metrics[d.name] = jsonMetric{v, d.unit}
	}
	names := make([]string, 0, len(r.spread))
	for n := range r.spread {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %.4f ratio\n", n, r.spread[n])
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "FAILED:", n)
	}
	fmt.Fprintf(w, "operations attempted %d failed %d\n", r.attempted, r.failed)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
