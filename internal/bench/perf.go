package bench

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"stopandstare"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
)

// PerfRecord is one micro-benchmark measurement in the perf-trajectory
// report: the same numbers `go test -bench` prints, in machine-readable
// form so successive PRs can be compared mechanically.
type PerfRecord struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// PerfReport is the schema of BENCH_PR<N>.json: hot-path measurements of
// the paired before/after implementations that coexist in the tree (arena
// scan vs postings walk, per-budget rescan vs incremental sweep, serial vs
// parallel generation), so each PR's JSON pins the win it claims.
type PerfReport struct {
	Schema    string       `json:"schema"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	CPUs      int          `json:"cpus"`
	Timestamp string       `json:"timestamp"`
	Results   []PerfRecord `json:"results"`
}

func record(name string, r testing.BenchmarkResult) PerfRecord {
	return PerfRecord{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// RunPerfSuite measures the RIS hot paths on a synthetic power-law graph.
// Every pair below keeps the old implementation alive as the baseline, so
// the report shows the delta, not just the new number.
//
// The generate/plan vs generate/oracle pairs compare the compiled sampling
// kernels (PR 4) against the Bernoulli/binary-search oracle, single-worker
// so the ratio is pure kernel cost. The primary pair runs on a high-degree
// weighted-cascade preset (epinions-scale node count at orkut-like average
// in-degree ≈ 40) — the regime the paper's Table 2 networks live in, where
// geometric skipping collapses d_in draws per node to ~2; the _lowdeg pair
// shows the same kernels on the sparser base graph, and the _lt pair
// compares the alias walk against the binary-search walk.
func RunPerfSuite(seed uint64) (*PerfReport, error) {
	g, err := gen.ChungLu(20000, 120000, 2.1, seed+9, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		return nil, err
	}
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		return nil, err
	}
	// High-degree WC preset: geometric skipping bites when d_in is large
	// (expected live in-edges per node is 1 regardless of degree).
	hi, err := gen.ChungLu(25000, 1000000, 2.1, seed+11, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		return nil, err
	}
	sHi, err := ris.NewSampler(hi, diffusion.IC)
	if err != nil {
		return nil, err
	}
	sHiLT, err := ris.NewSampler(hi, diffusion.LT)
	if err != nil {
		return nil, err
	}
	const streamLen = 20000
	const hiStreamLen = 2000
	col := ris.NewStore(s, seed+1, ris.StoreOptions{})
	col.GenerateTo(streamLen)

	// Seed set + mark vector for the coverage pair.
	seeds := maxcover.Greedy(col, col.Len(), 50).Seeds
	mark := make([]bool, g.NumNodes())
	for _, v := range seeds {
		mark[v] = true
	}
	half := col.Len() / 2

	// Cost model + budget sweep for the budgeted pair.
	costs := make([]float64, g.NumNodes())
	for v := range costs {
		costs[v] = float64(v%5) + 1
	}
	budgets := []float64{5, 10, 20, 40, 80, 160}

	rep := &PerfReport{
		Schema:    "stopandstare-perf/1",
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.GOMAXPROCS(0),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	add := func(name string, fn func(b *testing.B)) {
		rep.Results = append(rep.Results, record(name, testing.Benchmark(fn)))
	}

	add("generate/serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ris.NewStore(s, uint64(i)+seed+100, ris.StoreOptions{Workers: 1}).GenerateTo(streamLen)
		}
	})
	add("generate/parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ris.NewStore(s, uint64(i)+seed+100, ris.StoreOptions{}).GenerateTo(streamLen)
		}
	})
	// The same workload on the shard-parallel topology.
	add("generate/sharded4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ris.NewStore(s, uint64(i)+seed+100, ris.StoreOptions{Shards: 4}).GenerateTo(streamLen)
		}
	})
	// Remote pair: the one-shard workload pushed through the cross-process
	// wire protocol — an in-process ShardServer dialed over net.Pipe, so the
	// delta against generate/serial is protocol cost (framing, chunk
	// encode/decode, mirror append) without kernel sockets.
	remoteSrv := ris.NewShardServer(g, ris.ShardServerOptions{})
	remoteDial := func(string) (net.Conn, error) {
		c1, c2 := net.Pipe()
		go remoteSrv.ServeConn(c2)
		return c1, nil
	}
	add("generate/remote1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ris.NewStore(s, uint64(i)+seed+100, ris.StoreOptions{
				RemoteWorkers: []string{"pipe"}, RemoteDial: remoteDial,
			}).GenerateTo(streamLen)
		}
	})
	// Kernel pairs: plan vs oracle, 1 worker, identical workloads.
	genKernel := func(name string, smp *ris.Sampler, k ris.Kernel, n int) {
		add(name, func(b *testing.B) {
			b.ReportAllocs()
			sk := smp.WithKernel(k)
			for i := 0; i < b.N; i++ {
				ris.NewStore(sk, uint64(i)+seed+200, ris.StoreOptions{Workers: 1}).GenerateTo(n)
			}
		})
	}
	// The acceptance pair: the high-degree WC preset.
	genKernel("generate/oracle", sHi, ris.KernelOracle, hiStreamLen)
	genKernel("generate/plan", sHi, ris.KernelPlan, hiStreamLen)
	// Same kernels on the sparser base graph.
	genKernel("generate/oracle_lowdeg", s, ris.KernelOracle, streamLen)
	genKernel("generate/plan_lowdeg", s, ris.KernelPlan, streamLen)
	// Alias walk vs binary-search walk under LT on the high-degree preset.
	genKernel("generate/oracle_lt", sHiLT, ris.KernelOracle, hiStreamLen)
	genKernel("generate/plan_lt", sHiLT, ris.KernelPlan, hiStreamLen)
	// The baseline of the coverage pair: one pass over the window's sets,
	// counting those that contain a marked node — O(items in the window).
	var scanned int64
	add("coverage_range/scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			col.ForEachSet(half, col.Len(), func(_ int, set []uint32) {
				for _, v := range set {
					if mark[v] {
						scanned++
						break
					}
				}
			})
		}
	})
	add("coverage_range/postings", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			col.CoverageRangeSeeds(seeds, half, col.Len())
		}
	})
	// Remote coverage: the same window counted worker-side from the worker's
	// CSR blocks — one RPC shipping seed ids and one i64 back, never arenas.
	// The identity probe pins it to the in-process count before timing.
	remoteCol := ris.NewStore(s, seed+1, ris.StoreOptions{
		RemoteWorkers: []string{"pipe"}, RemoteDial: remoteDial,
	})
	remoteCol.GenerateTo(col.Len())
	if got, want := remoteCol.CoverageRangeSeeds(seeds, half, col.Len()), col.CoverageRangeSeeds(seeds, half, col.Len()); got != want {
		return nil, fmt.Errorf("bench: remote coverage %d drifted from in-process %d", got, want)
	}
	add("coverage_range/remote", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			remoteCol.CoverageRangeSeeds(seeds, half, col.Len())
		}
	})
	add("budget_sweep/rescan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, bud := range budgets {
				maxcover.GreedyBudgeted(col, col.Len(), costs, bud)
			}
		}
	})
	add("budget_sweep/incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol := maxcover.NewBudgetedSolver(col, costs)
			for _, bud := range budgets {
				sol.Solve(col.Len(), bud)
			}
		}
	})

	// Graph-load pair: the .ssg binary loader (full read, parse, heap copy,
	// inCum recompute) vs the .sasg mmap open (header validation only; the
	// 1M-edge adjacency never touches memory until queried). Both operate
	// on the same high-degree preset written to disk once up front. The
	// mapped op includes Close so the benchmark loop doesn't accumulate
	// mappings.
	tmpDir, err := os.MkdirTemp("", "sasg-perf")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)
	ssgPath := filepath.Join(tmpDir, "hi.ssg")
	sasgPath := filepath.Join(tmpDir, "hi.sasg")
	if err := hi.SaveBinaryFile(ssgPath); err != nil {
		return nil, err
	}
	if err := hi.WriteMappedFile(sasgPath); err != nil {
		return nil, err
	}
	if probe, err := graph.OpenMapped(sasgPath); err != nil {
		return nil, err
	} else if probe.NumNodes() != hi.NumNodes() || probe.NumEdges() != hi.NumEdges() {
		probe.Close()
		return nil, fmt.Errorf("bench: mapped probe %d/%d drifted from source %d/%d",
			probe.NumNodes(), probe.NumEdges(), hi.NumNodes(), hi.NumEdges())
	} else if err := probe.Close(); err != nil {
		return nil, err
	}
	add("graphload/binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := graph.LoadBinaryFile(ssgPath)
			if err != nil {
				b.Fatal(err)
			}
			_ = g
		}
	})
	add("graphload/mapped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := graph.OpenMapped(sasgPath)
			if err != nil {
				b.Fatal(err)
			}
			if err := g.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Serving-session records: the cost of one D-SSA query served cold
	// (fresh session: new store, resampled stream) vs warm (long-lived
	// session: the repeated query tops up nothing and copies its seeds out
	// of the greedy runs the session's solver retains per checkpoint) vs
	// warm at other k (zero sampling; a k above what a run holds resumes
	// that run once, after which it too is a copy), singly and as a sweep.
	// The suite first proves the warm result bit-identical to the cold one
	// before timing anything.
	sessOpt := stopandstare.SessionOptions{Seed: seed + 300}
	sessQuery := stopandstare.Query{K: 50, Epsilon: 0.1}
	coldCheck, err := func() (*stopandstare.Result, error) {
		sess, err := stopandstare.NewSession(g, diffusion.IC, sessOpt)
		if err != nil {
			return nil, err
		}
		return sess.Maximize(sessQuery)
	}()
	if err != nil {
		return nil, err
	}
	warmSess, err := stopandstare.NewSession(g, diffusion.IC, sessOpt)
	if err != nil {
		return nil, err
	}
	warmCheck, err := warmSess.Maximize(sessQuery) // warm-up + identity probe
	if err != nil {
		return nil, err
	}
	if warm2, err := warmSess.Maximize(sessQuery); err != nil {
		return nil, err
	} else if !slices.Equal(warm2.Seeds, coldCheck.Seeds) ||
		!slices.Equal(warmCheck.Seeds, coldCheck.Seeds) ||
		warm2.Samples != coldCheck.Samples {
		return nil, fmt.Errorf("bench: warm session drifted from cold run: %v/%d vs %v/%d",
			warm2.Seeds, warm2.Samples, coldCheck.Seeds, coldCheck.Samples)
	}
	add("session/cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess, err := stopandstare.NewSession(g, diffusion.IC, sessOpt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Maximize(sessQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("session/warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := warmSess.Maximize(sessQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("session/warm_newk", func(b *testing.B) {
		b.ReportAllocs()
		// Two k the warm-up never asked for, on the checkpoints it solved
		// at k = 50: 40 is a prefix of those runs, 60 extends each by ten
		// picks the first time and is a prefix ever after.
		ks := [2]int{40, 60}
		for i := 0; i < b.N; i++ {
			q := sessQuery
			q.K = ks[i%2]
			if _, err := warmSess.Maximize(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The spill records below budget against the store the k = 50 queries
	// grew; the sweep's larger k grow it further, so it is read first.
	flatStoreBytes := warmSess.Stats().StoreBytes
	add("session/warm_sweep", func(b *testing.B) {
		b.ReportAllocs()
		// One op is an ascending sweep k = 10, 20, …, 200: twenty queries
		// whose schedules share checkpoints (the unit depends on k only
		// through the iteration cap), each resuming the runs the last left.
		for i := 0; i < b.N; i++ {
			q := sessQuery
			for q.K = 10; q.K <= 200; q.K += 10 {
				if _, err := warmSess.Maximize(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	// Spill-tier trio (PR 9): the session/cold and session/warm workloads
	// re-run under resident-byte budgets that leave ~50% and ~90% of the
	// flat store's bytes on the disk spill tier. generate_* pays the spill
	// writes inside the cold run; warm_* pays fault-in through the read-only
	// mappings on the repeated query. The resident_* records are gauges, not
	// timings: Iterations 1 and BytesPerOp = Session.Stats().StoreBytes, so
	// the committed JSON pins the resident-ratio claim (spilled90 ≤ 0.5×
	// flat) next to the warm-latency one (warm_spilled90 ≤ 2× warm_flat).
	// Identity probes run before any timing: every budget must reproduce
	// the flat session's Seeds and sample count exactly.
	gauge := func(name string, bytes int64) {
		rep.Results = append(rep.Results, PerfRecord{Name: name, Iterations: 1, BytesPerOp: bytes})
	}
	add("spill/generate_flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess, err := stopandstare.NewSession(g, diffusion.IC, sessOpt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Maximize(sessQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("spill/warm_flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := warmSess.Maximize(sessQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	gauge("spill/resident_flat", flatStoreBytes)
	for _, tier := range []struct {
		name   string
		budget int64
	}{
		{"spilled50", flatStoreBytes / 2},
		{"spilled90", flatStoreBytes / 10},
	} {
		spillOpt := sessOpt
		spillOpt.SpillBudgetBytes = tier.budget
		spillOpt.SpillDir = tmpDir
		probe, err := stopandstare.NewSession(g, diffusion.IC, spillOpt)
		if err != nil {
			return nil, err
		}
		res, err := probe.Maximize(sessQuery)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(res.Seeds, coldCheck.Seeds) || res.Samples != coldCheck.Samples {
			return nil, fmt.Errorf("bench: %s session drifted from flat: %v/%d vs %v/%d",
				tier.name, res.Seeds, res.Samples, coldCheck.Seeds, coldCheck.Samples)
		}
		if st := probe.Stats(); st.SpillFileBytes == 0 {
			return nil, fmt.Errorf("bench: %s budget %d spilled nothing (flat store %d bytes)",
				tier.name, tier.budget, flatStoreBytes)
		}
		add("spill/generate_"+tier.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sess, err := stopandstare.NewSession(g, diffusion.IC, spillOpt)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.Maximize(sessQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
		add("spill/warm_"+tier.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := probe.Maximize(sessQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
		st := probe.Stats()
		gauge("spill/resident_"+tier.name, st.StoreBytes)
		gauge("spill/spilled_bytes_"+tier.name, st.StoreSpilledBytes)
	}

	// Durability pair (PR 10): time-to-first-answer for a cold process
	// start (fresh session, full resample + solve) vs a recovered start
	// (session construction maps a committed snapshot read-only, the first
	// query serves from the recovered stream without sampling). A seeding
	// session persists the converged store once up front; the identity
	// probe proves a recovered session's first answer bit-identical to the
	// cold one and that it actually recovered rather than resampled, before
	// anything is timed. The snapshot_bytes gauge pins what the recovery
	// reads.
	stateDir := filepath.Join(tmpDir, "state")
	recOpt := sessOpt
	recOpt.StateDir = stateDir
	snapInfo, err := func() (ris.SnapshotInfo, error) {
		seeder, err := stopandstare.NewSession(g, diffusion.IC, recOpt)
		if err != nil {
			return ris.SnapshotInfo{}, err
		}
		if _, err := seeder.Maximize(sessQuery); err != nil {
			return ris.SnapshotInfo{}, err
		}
		return seeder.Persist()
	}()
	if err != nil {
		return nil, err
	}
	recProbe, err := stopandstare.NewSession(g, diffusion.IC, recOpt)
	if err != nil {
		return nil, err
	}
	if st := recProbe.Stats(); st.Recovered == 0 {
		return nil, fmt.Errorf("bench: recovered session resampled instead of recovering")
	}
	if res, err := recProbe.Maximize(sessQuery); err != nil {
		return nil, err
	} else if !slices.Equal(res.Seeds, coldCheck.Seeds) || res.Samples != coldCheck.Samples {
		return nil, fmt.Errorf("bench: recovered session drifted from cold run: %v/%d vs %v/%d",
			res.Seeds, res.Samples, coldCheck.Seeds, coldCheck.Samples)
	}
	add("durability/cold_start", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess, err := stopandstare.NewSession(g, diffusion.IC, sessOpt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Maximize(sessQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("durability/recovered_start", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess, err := stopandstare.NewSession(g, diffusion.IC, recOpt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Maximize(sessQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	gauge("durability/snapshot_bytes", snapInfo.Bytes)
	return rep, nil
}

// WritePerfJSON runs the perf suite and writes the report to path
// (conventionally BENCH_PR<N>.json at the repo root).
func WritePerfJSON(path string, seed uint64) error {
	rep, err := RunPerfSuite(seed)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing perf report: %w", err)
	}
	return nil
}
