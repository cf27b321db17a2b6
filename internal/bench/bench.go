// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§7) on the synthetic dataset stand-ins.
// Each experiment is registered by the paper artifact it reproduces
// ("table2", "fig4", "fig8", …) and emits both a human-readable table and
// machine-readable CSV rows, so EXPERIMENTS.md can record paper-vs-measured
// side by side.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"stopandstare/internal/baselines"
	"stopandstare/internal/core"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
)

// Config controls dataset scale and algorithm parameters for a harness run.
type Config struct {
	// Epsilon/Delta are the (ε,δ) of every algorithm; Delta 0 ⇒ 1/n.
	Epsilon float64
	Delta   float64
	// Seed drives the generators and algorithms.
	Seed uint64
	// GraphFile, when set, replaces every generated preset with the graph
	// loaded from this file (.ssg binary or mmap-able .sasg, sniffed) — so
	// the harness runs its experiments against a real on-disk graph instead
	// of a synthetic stand-in.
	GraphFile string
	// Workers for sampling and Monte-Carlo evaluation.
	Workers int
	// Shards is the number of id shards of the RR store; ≤ 1 = one shard
	// (default). The harness can compare shard counts on identical
	// workloads; results are bit-identical. ShardWorkers bounds per-shard
	// parallelism (≤0 derives Workers/Shards).
	Shards       int
	ShardWorkers int
	// ScaleMul multiplies each preset's default scale (1.0 = harness
	// defaults from gen.DefaultScales; raise toward the paper's full sizes
	// on bigger machines).
	ScaleMul float64
	// KValues overrides the seed-budget sweep; empty selects a default
	// sweep proportional to each dataset's size.
	KValues []int
	// MCRuns is the Monte-Carlo budget for scoring returned seed sets
	// (the paper uses 10,000).
	MCRuns int
	// Quick shrinks sweeps and datasets for CI / `go test -bench`.
	Quick bool
	// IncludeCELF adds CELF++ to the nethept sweeps (paper §7.2 runs it
	// only there). Off by default: even lazily, it needs n initial spread
	// estimates, which dominates an entire harness run.
	IncludeCELF bool
}

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.ScaleMul == 0 {
		c.ScaleMul = 1
	}
	if c.MCRuns == 0 {
		if c.Quick {
			c.MCRuns = 1000
		} else {
			c.MCRuns = 10000
		}
	}
	if c.Seed == 0 {
		c.Seed = 20160626 // SIGMOD'16 conference date
	}
	return c
}

// Dataset is a generated stand-in for one of Table 2's networks.
type Dataset struct {
	Name  string
	Scale float64
	Graph *graph.Graph
}

// LoadDataset generates the named preset at cfg's scale — or, when
// cfg.GraphFile is set, opens that file instead (a .sasg file mmaps in O(1);
// the preset name only labels the output rows).
func LoadDataset(name string, cfg Config) (*Dataset, error) {
	cfg = cfg.Normalize()
	if cfg.GraphFile != "" {
		g, err := graph.OpenFileAuto(cfg.GraphFile)
		if err != nil {
			return nil, fmt.Errorf("bench: opening %s: %w", cfg.GraphFile, err)
		}
		return &Dataset{Name: name, Scale: 1, Graph: g}, nil
	}
	p, err := gen.PresetByName(name)
	if err != nil {
		return nil, err
	}
	scale := gen.DefaultScales[name] * cfg.ScaleMul
	if cfg.Quick {
		scale *= 0.1
	}
	if scale > 1 {
		scale = 1
	}
	g, err := p.Generate(scale, cfg.Seed+hashName(name), graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		return nil, fmt.Errorf("bench: generating %s: %w", name, err)
	}
	return &Dataset{Name: name, Scale: scale, Graph: g}, nil
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// KSweep returns the default seed-budget sweep for a dataset of n nodes,
// mirroring the paper's 1…20000 sweep proportionally at reduced scale.
func (c Config) KSweep(n int) []int {
	if len(c.KValues) > 0 {
		return dedupKs(clampKs(c.KValues, n))
	}
	var fracs []float64
	if c.Quick {
		fracs = []float64{0.0005, 0.01, 0.05}
	} else {
		fracs = []float64{0.0005, 0.005, 0.01, 0.03, 0.07, 0.13}
	}
	ks := make([]int, 0, len(fracs)+1)
	ks = append(ks, 1)
	for _, f := range fracs {
		k := int(f * float64(n))
		if k > 1 {
			ks = append(ks, k)
		}
	}
	return dedupKs(clampKs(ks, n))
}

func clampKs(ks []int, n int) []int {
	out := make([]int, 0, len(ks))
	for _, k := range ks {
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		out = append(out, k)
	}
	return out
}

func dedupKs(ks []int) []int {
	out := ks[:0]
	last := -1
	for _, k := range ks {
		if k != last {
			out = append(out, k)
			last = k
		}
	}
	return out
}

// AlgoID identifies an algorithm in harness tables.
type AlgoID string

// The algorithm set of the paper's evaluation.
const (
	AlgoDSSA    AlgoID = "D-SSA"
	AlgoSSA     AlgoID = "SSA"
	AlgoIMM     AlgoID = "IMM"
	AlgoTIMPlus AlgoID = "TIM+"
	AlgoTIM     AlgoID = "TIM"
	AlgoCELFPP  AlgoID = "CELF++"
	AlgoDegree  AlgoID = "Degree"
	AlgoRandom  AlgoID = "Random"
)

// IMAlgos is the RIS comparison set used by the figure sweeps.
var IMAlgos = []AlgoID{AlgoDSSA, AlgoSSA, AlgoIMM, AlgoTIMPlus, AlgoTIM}

// Metrics aggregates everything a figure or table needs from one run.
type Metrics struct {
	Algo      AlgoID
	K         int
	Seeds     []uint32
	Influence float64 // algorithm's own estimate (0 for heuristics)
	Spread    float64 // forward-MC score of the seed set
	SpreadErr float64
	Elapsed   time.Duration
	Samples   int64 // RR sets generated (0 for non-RIS algorithms)
	Memory    int64 // approximate bytes held by RR collections
}

// RunIM executes one algorithm on one dataset under one model.
func RunIM(d *Dataset, model diffusion.Model, algo AlgoID, k int, cfg Config) (*Metrics, error) {
	cfg = cfg.Normalize()
	g := d.Graph
	m := &Metrics{Algo: algo, K: k}
	s, err := ris.NewSampler(g, model)
	if err != nil {
		return nil, err
	}
	switch algo {
	case AlgoDSSA, AlgoSSA:
		opt := core.Options{K: k, Epsilon: cfg.Epsilon, Delta: cfg.Delta, Seed: cfg.Seed,
			Workers: cfg.Workers, Shards: cfg.Shards, ShardWorkers: cfg.ShardWorkers}
		var res *core.Result
		if algo == AlgoDSSA {
			res, err = core.DSSA(s, opt)
		} else {
			res, err = core.SSA(s, opt)
		}
		if err != nil {
			return nil, err
		}
		m.Seeds, m.Influence, m.Elapsed = res.Seeds, res.Influence, res.Elapsed
		m.Samples, m.Memory = res.TotalSamples, res.MemoryBytes
	case AlgoIMM, AlgoTIM, AlgoTIMPlus:
		opt := baselines.Options{K: k, Epsilon: cfg.Epsilon, Delta: cfg.Delta, Seed: cfg.Seed,
			Workers: cfg.Workers, Shards: cfg.Shards, ShardWorkers: cfg.ShardWorkers}
		var res *baselines.Result
		switch algo {
		case AlgoIMM:
			res, err = baselines.IMM(s, opt)
		case AlgoTIM:
			res, err = baselines.TIM(s, opt)
		default:
			res, err = baselines.TIMPlus(s, opt)
		}
		if err != nil {
			return nil, err
		}
		m.Seeds, m.Influence, m.Elapsed = res.Seeds, res.Influence, res.Elapsed
		m.Samples, m.Memory = res.TotalSamples, res.MemoryBytes
	case AlgoCELFPP:
		runs := cfg.MCRuns / 10
		if runs < 100 {
			runs = 100
		}
		res, err := baselines.CELFPlusPlus(g, baselines.GreedyOptions{
			K: k, Model: model, MCRuns: runs, Seed: cfg.Seed, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		m.Seeds, m.Influence, m.Elapsed = res.Seeds, res.Influence, res.Elapsed
	case AlgoDegree:
		start := time.Now()
		m.Seeds, err = baselines.HighDegree(g, k)
		if err != nil {
			return nil, err
		}
		m.Elapsed = time.Since(start)
	case AlgoRandom:
		start := time.Now()
		m.Seeds, err = baselines.RandomSeeds(g, k, cfg.Seed)
		if err != nil {
			return nil, err
		}
		m.Elapsed = time.Since(start)
	default:
		return nil, fmt.Errorf("bench: unknown algorithm %q", algo)
	}
	m.Spread, m.SpreadErr, err = diffusion.Spread(g, model, m.Seeds, diffusion.SpreadOptions{
		Runs: cfg.MCRuns, Seed: cfg.Seed + 1, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}
