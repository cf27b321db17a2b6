package main

import (
	"time"
)

// runTraced is the -trace 1 run. It times setup once, runs the schedule
// untraced (modeLive) and then through the timed wrappers (modeTraced), checks
// that both give the same answers, and reports the per-layer metrics as
// medians over the traced reps. Tracing overhead is the difference between
// the two.
func runTraced(cfg config, e *env) (*report, error) {
	e.rec = newRecorder()
	setups, err := timeSetup(e, 1)
	if err != nil {
		return nil, err
	}
	sched := e.w.schedule(cfg.seed)
	if _, err := e.runRep(modeLive, sched); err != nil { // warm-up, discarded
		return nil, err
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	parts := time.Duration(2)
	if e.w.kind == kindServe || e.w.kind == kindCold {
		parts = 3 // a third part for the direct pass / the sweep and baseline
	}
	live, err := repsFor(e, modeLive, sched, budget/parts, 2)
	if err != nil {
		return nil, err
	}
	traced, err := repsFor(e, modeTraced, sched, budget/parts, 2)
	if err != nil {
		return nil, err
	}

	r := newReport(perLayer)
	stamp(r, cfg, e, sched, len(traced))
	for _, d := range perLayer {
		r.set(d.name, 0)
	}
	r.set("graph.generate_s", setups[0].generate.Seconds())
	r.set("graph.write_sasg_s", setups[0].write.Seconds())
	layerMetrics(r, e, live, traced)
	switch e.w.kind {
	case kindServe:
		direct, err := repsFor(e, modeDirect, sched, budget/parts, 2)
		if err != nil {
			return nil, err
		}
		servingMetrics(r, sched, live, direct)
		r.reps("direct rep", sched, live[0], direct)
	case kindCold:
		if err := sweepAndBaseline(r, e); err != nil {
			return nil, err
		}
	}

	r.reps("rep", sched, live[0], live)
	r.reps("traced rep", sched, live[0], traced)
	out := traceFile(cfg, e)
	if err := e.rec.writeFile(out); err != nil {
		return nil, err
	}
	r.infof("spans %d written to %s", e.rec.len(), out)
	return r, nil
}

// layerMetrics fills the ledger from the traced reps: each layer's self time
// is summed over the pass's spans, then the median over reps is reported.
// Counts are identical in every rep (the work is), so the last rep's are used.
func layerMetrics(r *report, e *env, live, traced []*repResult) {
	perRep := map[string][]float64{}
	var pass, dssa, ssa, dssaGen, ssaCore, liveTotal, tracedTotal []float64
	for _, rp := range traced {
		pt := rp.trace
		self, _ := e.rec.selfTimes(pt.from, pt.to)
		// Self times partition the pass, so the layers sum to it by
		// construction; the final Persist runs after it.
		var sum float64
		for name, s := range self {
			perRep[name] = append(perRep[name], s)
			if name != spanPersist {
				sum += s
			}
		}
		pass = append(pass, sum)
		dssa = append(dssa, pt.cnt.dssaSeconds)
		ssa = append(ssa, pt.cnt.ssaSeconds)
		if pt.cnt.dssaSeconds > 0 {
			dssaGen = append(dssaGen, pt.cnt.dssaGenerate/pt.cnt.dssaSeconds)
		}
		if pt.cnt.ssaSeconds > 0 {
			ssaCore = append(ssaCore, pt.cnt.ssaCore/pt.cnt.ssaSeconds)
		}
		tracedTotal = append(tracedTotal, rp.total.Seconds())
	}
	for _, rp := range live {
		liveTotal = append(liveTotal, rp.total.Seconds())
	}
	for _, l := range []struct{ span, metric string }{
		{spanOpen, "graph.open_s"}, {spanPlan, "ris.plan_compile_s"}, {spanGenerate, "ris.generate_s"},
		{spanCoverage, "ris.coverage_s"}, {spanRecover, "ris.recover_s"}, {spanSpill, "ris.spill_s"},
		{spanPersist, "ris.persist_s"}, {spanSolve, "maxcover.solve_s"}, {spanQuery, "core.self_s"},
	} {
		// A layer the workload never called has no spans: it stays 0.
		if len(perRep[l.span]) == len(traced) {
			r.setTimed(l.metric, 1, perRep[l.span])
		}
	}
	r.setTimed("trace.pass_s", 1, pass)
	r.setTimed("trace.dssa_s", 1, dssa)
	r.setTimed("trace.ssa_s", 1, ssa)

	c := traced[len(traced)-1].trace.cnt
	const mb = 1 << 20
	r.set("graph.mapped_mb", float64(c.graphMappedBytes)/mb)
	r.set("ris.plan_mb", float64(c.planBytes)/mb)
	r.set("ris.generate_calls", float64(c.generateCalls))
	r.set("ris.generate_rr_sets", float64(c.generateSets))
	r.set("ris.generate_items", float64(c.generateItems))
	if g := r.values["ris.generate_s"]; g > 0 {
		r.set("ris.generate_rr_per_s", float64(c.generateSets)/g)
	}
	r.set("ris.store_mb", float64(c.storeBytes)/mb)
	if c.storeSets > 0 {
		r.set("ris.bytes_per_rr", float64(c.storeBytes)/float64(c.storeSets))
	}
	r.set("ris.coverage_calls", float64(c.coverageCalls))
	r.set("ris.recovered_rr_sets", float64(c.recoveredSets))
	r.set("ris.spilled_mb", float64(c.spilledBytes)/mb)
	r.set("ris.resident_mb", float64(c.residentBytes)/mb)
	r.set("ris.snapshot_mb", float64(c.snapshotBytes)/mb)
	r.set("maxcover.solve_calls", float64(c.solveCalls))
	r.set("maxcover.scanned_rr_sets", float64(c.scannedSets))
	r.set("maxcover.rescans", float64(c.rescans))
	r.set("core.iterations", float64(c.iterations))
	r.set("core.verify_rr_sets", float64(c.verifySets))
	r.set("core.hit_cap", float64(c.hitCap))
	r.set("session.warm_share", float64(c.warm)/float64(c.queries))
	r.set("session.growths", float64(c.generateCalls))
	r.set("session.solvers", float64(c.solvers))

	r.set("trace.dssa_generate_share", median(dssaGen))
	r.set("trace.ssa_core_share", median(ssaCore))
	if p := r.values["trace.pass_s"]; p > 0 {
		r.set("trace.generate_share", r.values["ris.generate_s"]/p)
		r.set("trace.solve_share", r.values["maxcover.solve_s"]/p)
	}
	if e.w.kind != kindServe {
		// A served pass has nproc clients and a traced one a single caller,
		// so their ratio is not overhead; servingMetrics leaves it at 0.
		r.set("trace.overhead_share", median(tracedTotal)/median(liveTotal)-1)
	}
}

// servingMetrics fills the serving layer from the HTTP reps (client spans,
// server-reported execution times, /stats) and the direct-Manager reps.
func servingMetrics(r *report, sched [][]query, http, direct []*repResult) {
	var overhead, all []float64
	for _, rp := range http {
		overhead = append(overhead, rp.serving.overheadMS...)
		for c := range rp.lat {
			for _, d := range rp.lat[c] {
				all = append(all, d.Seconds()*1e3)
			}
		}
	}
	r.set("serving.overhead_ms_p50", nearestRank(overhead, 50))
	r.set("serving.latency_p99_ms", nearestRank(all, 99))
	r.set("serving.latency_samples", float64(len(all)))
	r.set("serving.http_ms_p50", (nearestRank(positionLatencies(sched, http), 50)-
		nearestRank(positionLatencies(sched, direct), 50))*1e3)
	var executed, coalesced, spills, evictions []float64
	for _, rp := range http {
		st := rp.serving.stats
		executed = append(executed, float64(st.Executed))
		coalesced = append(coalesced, float64(st.Coalesced))
		spills = append(spills, float64(st.Spills))
		evictions = append(evictions, float64(st.Evictions))
	}
	r.set("serving.executed", median(executed))
	r.set("serving.coalesced", median(coalesced))
	r.set("serving.spills", median(spills))
	r.set("serving.evictions", median(evictions))
	last := http[len(http)-1].serving.stats
	r.set("serving.rejected_429", float64(last.Rejected429))
	r.set("serving.timeout_503", float64(last.Timeout503))
}
