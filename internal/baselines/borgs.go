package baselines

import (
	"math"
	"time"

	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
)

// BorgsOptions configures the original RIS algorithm of Borgs, Brautbar,
// Chayes and Lucier (SODA'14) — the method that introduced reverse
// reachable sets and that TIM/IMM/SSA all descend from.
type BorgsOptions struct {
	Options
	// C is the hidden constant of the width threshold τ = C·k·(m+n)·log₂n/ε³.
	// The analysis uses 48; the paper under reproduction notes the
	// algorithm is "less than satisfactory due to the rather large hidden
	// constants", which this default makes visible. Lower it to trade the
	// guarantee for speed.
	C float64
}

// Borgs implements the SODA'14 algorithm: keep generating RR sets until
// their *total width* (number of edges examined, Σ w(R)) reaches
// τ = C·k·(m+n)·log₂n/ε³, then solve max-coverage. The width-based
// stopping rule is what bounds its running time by O(k·(m+n)·log²n/ε³)
// independent of the influence landscape.
func Borgs(s *ris.Sampler, opt BorgsOptions) (*Result, error) {
	start := time.Now()
	if err := opt.normalize(s); err != nil {
		return nil, err
	}
	if opt.C <= 0 {
		opt.C = 48
	}
	g := s.Graph()
	n := float64(g.NumNodes())
	m := float64(g.NumEdges())
	eps := opt.Epsilon
	tau := opt.C * float64(opt.K) * (m + n) * math.Log2(math.Max(n, 2)) / (eps * eps * eps)

	col := opt.newStore(s)
	iterations := 0
	// Generate until the width budget is exhausted (the SODA paper
	// interleaves generation and width counting; predictive batching from
	// the running average width preserves the stopping point to within a
	// small batch). The stream stops at ris.MaxSets, the int32 id space.
	// width is the running Σ w(R), folded over each new batch.
	batch := 256
	var width int64
	for float64(width) < tau && col.Len() < ris.MaxSets {
		iterations++
		from := col.Len()
		col.GenerateTo(from + min(batch, ris.MaxSets-from))
		col.ForEachSet(from, col.Len(), func(_ int, set []uint32) {
			width += setWidth(g, set)
		})
		if col.Len() > 0 && width > 0 {
			avg := float64(width) / float64(col.Len())
			need := (tau - float64(width)) / avg
			switch {
			case need < 64:
				batch = 64
			case need > 1<<20:
				batch = 1 << 20
			default:
				batch = int(need) + 1
			}
		}
	}
	mc := maxcover.Greedy(col, col.Len(), opt.K)
	return &Result{
		Seeds:           mc.Seeds,
		Influence:       mc.Influence(s.Scale()),
		CoverageSamples: int64(col.Len()),
		TotalSamples:    int64(col.Len()),
		Iterations:      iterations,
		MemoryBytes:     col.Bytes(),
		Elapsed:         time.Since(start),
	}, nil
}
