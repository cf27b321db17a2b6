// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§7) on the synthetic dataset stand-ins.
// Each experiment is registered by the paper artifact it reproduces
// ("table2", "fig4", "fig8", …) and emits a human-readable table. Every
// algorithm runs through the public API (stopandstare.Maximize), so the
// harness measures the path users run.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"stopandstare"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
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

// algorithms maps each harness id onto the public API's algorithm.
var algorithms = map[AlgoID]stopandstare.Algorithm{
	AlgoDSSA: stopandstare.DSSA, AlgoSSA: stopandstare.SSA, AlgoIMM: stopandstare.IMM,
	AlgoTIMPlus: stopandstare.TIMPlus, AlgoTIM: stopandstare.TIM,
	AlgoCELFPP: stopandstare.CELFPlusPlus, AlgoDegree: stopandstare.Degree, AlgoRandom: stopandstare.Random,
}

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

// options returns the public API's options for a run at seed budget k.
func (c Config) options(k int) stopandstare.Options {
	return stopandstare.Options{K: k, Epsilon: c.Epsilon, Delta: c.Delta, Seed: c.Seed,
		Workers: c.Workers, Shards: c.Shards, ShardWorkers: c.ShardWorkers}
}

// RunIM executes one algorithm on one dataset under one model, then scores
// its seed set by forward Monte-Carlo.
func RunIM(d *Dataset, model diffusion.Model, algo AlgoID, k int, cfg Config) (*Metrics, error) {
	cfg = cfg.Normalize()
	a, ok := algorithms[algo]
	if !ok {
		return nil, fmt.Errorf("bench: unknown algorithm %q", algo)
	}
	opt := cfg.options(k)
	opt.MCRuns = max(cfg.MCRuns/10, 100) // CELF++'s per-candidate estimates
	res, err := stopandstare.Maximize(d.Graph, model, a, opt)
	if err != nil {
		return nil, err
	}
	m := &Metrics{Algo: algo, K: k, Seeds: res.Seeds, Influence: res.InfluenceEstimate,
		Elapsed: res.Elapsed, Samples: res.Samples, Memory: res.MemoryBytes}
	m.Spread, m.SpreadErr, err = stopandstare.EvaluateSpread(d.Graph, model, m.Seeds, cfg.MCRuns, cfg.Seed+1, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return m, nil
}
