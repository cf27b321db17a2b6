// Command imperf is the repository's benchmark: four seeded workloads, seven
// end-to-end metrics per workload, and a per-layer ledger timed from outside
// the program. See ../README.md.
//
//	go run -C benchmarks ./imperf -workload cold_sparse -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it runs the workload through the public surface and prints
// the end-to-end metrics; with -trace 1 it also runs the same schedule through
// its own timed wrappers and prints the per-layer metrics. The last line of
// standard output is one JSON object for the driver.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	traceOut  string
	scale     string
	workdir   string
	setupReps int // setupRuns, except in the self-tests
	nproc     int
}

// setupRuns is how often a run sets up: setup_s is the median, because one
// graph generation is a single sample of a second or two.
const setupRuns = 3

func main() {
	var cfg config
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "cold_sparse | warm_stream | serve_mixed | tier_recover")
	flag.Uint64Var(&cfg.seed, "seed", 1, "run seed: query order, checked positions, Monte-Carlo seeds")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed reps run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: print the per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "traced run: write the spans here, one JSON object per line")
	flag.StringVar(&cfg.scale, "scale", "full", "full | tiny (harness self-tests)")
	flag.StringVar(&cfg.workdir, "workdir", ".imperf-work", "directory for generated graphs, spill files and snapshots")
	flag.IntVar(&repeat, "repeat", 0, "run the workload N times (seeds seed, seed+1, …) and print the spread of every end-to-end metric")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "imperf: unexpected argument", flag.Arg(0))
		os.Exit(2)
	}
	cfg.trace = trace != 0
	cfg.setupReps = setupRuns
	cfg.nproc = runtime.GOMAXPROCS(0)
	var err error
	if repeat > 0 {
		err = runRepeat(cfg, repeat, os.Stdout)
	} else {
		var rep *report
		if rep, err = run(cfg); err == nil {
			if err = rep.write(os.Stdout); err == nil && rep.failed > 0 {
				err = fmt.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "imperf:", err)
		os.Exit(1)
	}
}

// run executes one workload once and returns its report.
func run(cfg config) (*report, error) {
	w, err := specByName(cfg.workload, cfg.scale, cfg.nproc)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.Remove(cfg.workdir) // goes only if no span file is left in it
	defer os.RemoveAll(dir)
	e, err := newEnv(w, cfg.nproc, dir)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return runTraced(cfg, e)
	}
	return runUntraced(cfg, e)
}

func stamp(r *report, cfg config, e *env, sched [][]query, reps int) {
	q := 0
	for _, s := range sched {
		q += len(s)
	}
	r.infof("workload %s seed %d scale %s: %s", e.w.name, cfg.seed, cfg.scale, e.w.why)
	r.infof("stamp nproc=%d GOMAXPROCS=%d go=%s commit=%s Q=%d R=%d clients=%d seconds=%g",
		runtime.NumCPU(), cfg.nproc, runtime.Version(), commit(), q, reps, len(sched), cfg.seconds)
}

// timeSetup runs setup n times and returns each run's times.
func timeSetup(e *env, n int) ([]setupTimes, error) {
	var out []setupTimes
	for i := 0; i < n; i++ {
		st, err := e.setup()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// repsFor runs at least min reps in mode m, and then more for as long as
// another one as long as the longest so far still ends inside budget: the
// timed part of a run does not overrun --seconds by a pass.
func repsFor(e *env, m mode, sched [][]query, budget time.Duration, min int) ([]*repResult, error) {
	var reps []*repResult
	var longest time.Duration
	for start := time.Now(); len(reps) < min || time.Since(start)+longest <= budget; {
		t := time.Now()
		r, err := e.runRep(m, sched)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		longest = max(longest, time.Since(t))
	}
	return reps, nil
}

// minReps is the fewest timed reps a median is taken over.
const minReps = 3

func runUntraced(cfg config, e *env) (*report, error) {
	t0 := time.Now()
	setups, err := timeSetup(e, cfg.setupReps)
	if err != nil {
		return nil, err
	}
	sched := e.w.schedule(cfg.seed)
	t1 := time.Now()
	if _, err := e.runRep(modeLive, sched); err != nil { // warm-up, discarded
		return nil, err
	}
	t2 := time.Now()
	reps, err := repsFor(e, modeLive, sched, time.Duration(cfg.seconds*float64(time.Second)), minReps)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()

	r := newReport(endToEnd)
	stamp(r, cfg, e, sched, len(reps))
	var setupS []float64
	for _, s := range setups {
		setupS = append(setupS, s.total.Seconds())
	}
	r.setTimed("setup_s", 1, setupS)
	endToEndTimings(r, sched, reps)
	peakRSS(r, reps)
	r.set("rr_sets", float64(rrSets(reps[0])))

	r.reps("rep", sched, reps[0], reps)
	for i, rp := range reps {
		if n := rrSets(rp); n != rrSets(reps[0]) {
			r.fail("rep %d generated %d RR sets, rep 0 %d", i, n, rrSets(reps[0]))
		}
	}
	if err := r.oracle(e, sched, reps[0], cfg.seed); err != nil {
		return nil, err
	}
	r.infof("phases setup %.1fs warm-up %.1fs timed reps %.1fs answer check %.1fs",
		t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), time.Since(t3).Seconds())
	return r, nil
}

// endToEndTimings sets run_s, first_answer_ms and the query percentiles: the
// latency of a position is its median over the reps, and the percentiles are
// nearest-rank over the positions, so they describe the workload's heavy
// queries and not the machine's worst moment.
func endToEndTimings(r *report, sched [][]query, reps []*repResult) {
	var run, first []float64
	for _, rp := range reps {
		run = append(run, rp.run.Seconds())
		first = append(first, rp.firstAnswer.Seconds())
	}
	r.setTimed("run_s", 1, run)
	r.setTimed("first_answer_ms", 1e3, first)
	lat := positionLatencies(sched, reps)
	r.set("query_p50_ms", nearestRank(lat, 50)*1e3)
	r.set("query_p90_ms", nearestRank(lat, 90)*1e3)
}

// peakRSS sets peak_rss_mb. Where the kernel lets the benchmark restart the
// high-water mark, every rep has its own peak and the median is reported;
// elsewhere the mark covers the whole process, setup included, and the last
// rep's reading is the process's peak.
func peakRSS(r *report, reps []*repResult) {
	var per []float64
	for _, rp := range reps {
		if !rp.rssReset {
			r.infof("peak_rss_mb is the whole process's high-water mark: /proc/self/clear_refs is not writable")
			r.set("peak_rss_mb", reps[len(reps)-1].peakRSS)
			return
		}
		per = append(per, rp.peakRSS)
	}
	r.setTimed("peak_rss_mb", 1, per)
}

// positionLatencies returns, per schedule position, the median latency over
// the reps, in seconds.
func positionLatencies(sched [][]query, reps []*repResult) []float64 {
	var out []float64
	per := make([]float64, len(reps))
	for c := range sched {
		for i := range sched[c] {
			for j, rp := range reps {
				per[j] = rp.lat[c][i].Seconds()
			}
			out = append(out, median(per))
		}
	}
	return out
}

func traceFile(cfg config, e *env) string {
	if cfg.traceOut != "" {
		return cfg.traceOut
	}
	return filepath.Join(cfg.workdir, e.w.name+".spans.jsonl")
}
