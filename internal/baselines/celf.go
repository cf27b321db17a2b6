package baselines

import (
	"container/heap"
	"fmt"
	"time"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/graph"
)

// GreedyOptions configures the simulation-based greedy algorithms
// (CELF, CELF++, plain greedy). These are the pre-RIS generation of IM
// algorithms; the paper runs CELF++ only on its smallest dataset because
// even with lazy evaluation it needs k·n spread estimations in the worst
// case, each costing MCRuns cascades.
type GreedyOptions struct {
	K       int
	Model   diffusion.Model
	MCRuns  int // Monte-Carlo runs per spread estimate (paper: 10,000)
	Seed    uint64
	Workers int
}

func (o *GreedyOptions) normalize(g *graph.Graph) error {
	if g == nil {
		return ErrNilSampler
	}
	if o.K < 1 || o.K > g.NumNodes() {
		return fmt.Errorf("%w: k=%d n=%d", ErrBadK, o.K, g.NumNodes())
	}
	if err := g.CheckForward(); err != nil {
		return err
	}
	if o.MCRuns <= 0 {
		o.MCRuns = 10000
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return nil
}

// GreedyResult reports a simulation-based greedy run.
type GreedyResult struct {
	Seeds       []uint32
	Influence   float64 // MC estimate of I(Seeds)
	Evaluations int64   // spread estimations performed
	Elapsed     time.Duration
}

type celfEntry struct {
	node     uint32
	gain     float64 // marginal gain w.r.t. the seed set at round `round`
	round    int     // seed-set size the gain was computed against
	prevBest uint32  // CELF++: best node seen when gain was computed
	gain2    float64 // CELF++: marginal gain w.r.t. S ∪ {prevBest}
	hasGain2 bool
}

type celfHeap []*celfEntry

func (h celfHeap) Len() int            { return len(h) }
func (h celfHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h celfHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x interface{}) { *h = append(*h, x.(*celfEntry)) }
func (h *celfHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// spreadOf estimates I(seeds) with the configured MC budget.
func spreadOf(g *graph.Graph, opt GreedyOptions, seeds []uint32, salt uint64) float64 {
	mean, _, _ := diffusion.Spread(g, opt.Model, seeds, diffusion.SpreadOptions{
		Runs:    opt.MCRuns,
		Seed:    opt.Seed ^ salt,
		Workers: opt.Workers,
	})
	return mean
}

// CELF implements Leskovec et al.'s lazy-forward greedy: marginal gains are
// kept in a max-heap and only re-evaluated when they surface, exploiting
// submodularity. Identical output to plain greedy up to MC noise.
func CELF(g *graph.Graph, opt GreedyOptions) (*GreedyResult, error) {
	return celf(g, opt, false)
}

// CELFPlusPlus implements Goyal et al.'s CELF++: alongside the marginal
// gain w.r.t. S, each entry carries the gain w.r.t. S ∪ {prevBest}; when
// the previous round's best node was indeed selected, the second gain is
// already the fresh value and one spread estimation is saved.
func CELFPlusPlus(g *graph.Graph, opt GreedyOptions) (*GreedyResult, error) {
	return celf(g, opt, true)
}

func celf(g *graph.Graph, opt GreedyOptions, plusplus bool) (*GreedyResult, error) {
	start := time.Now()
	if err := opt.normalize(g); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	res := &GreedyResult{}
	seeds := make([]uint32, 0, opt.K)
	cur := 0.0 // I(seeds)

	h := make(celfHeap, 0, n)
	buf := make([]uint32, 0, opt.K+1)
	for v := 0; v < n; v++ {
		if g.OutDegree(uint32(v)) == 0 && opt.K < n {
			// out-degree-0 nodes gain exactly 1 (themselves); still enqueue
			// so small graphs behave correctly.
			h = append(h, &celfEntry{node: uint32(v), gain: 1, round: 0})
			continue
		}
		gain := spreadOf(g, opt, []uint32{uint32(v)}, uint64(v))
		res.Evaluations++
		h = append(h, &celfEntry{node: uint32(v), gain: gain, round: 0})
	}
	heap.Init(&h)

	var lastPicked uint32
	hasLast := false
	for len(seeds) < opt.K && h.Len() > 0 {
		e := heap.Pop(&h).(*celfEntry)
		if e.round == len(seeds) {
			// Gain is current: select.
			seeds = append(seeds, e.node)
			cur += e.gain
			lastPicked = e.node
			hasLast = true
			continue
		}
		if plusplus && e.hasGain2 && hasLast && e.prevBest == lastPicked && e.round == len(seeds)-1 {
			// CELF++ shortcut: gain w.r.t. S∪{prevBest} is the fresh gain.
			e.gain = e.gain2
			e.round = len(seeds)
			e.hasGain2 = false
			heap.Push(&h, e)
			continue
		}
		// Re-evaluate against the current seed set.
		buf = append(buf[:0], seeds...)
		buf = append(buf, e.node)
		total := spreadOf(g, opt, buf, uint64(e.node)*2654435761+uint64(len(seeds)))
		res.Evaluations++
		e.gain = total - cur
		e.round = len(seeds)
		if plusplus && h.Len() > 0 {
			// Estimate gain w.r.t. S ∪ {current best candidate}.
			best := h[0].node
			if best != e.node {
				buf2 := append(append([]uint32{}, buf...), best)
				t2 := spreadOf(g, opt, buf2, uint64(e.node)*0x9E3779B1+uint64(best))
				res.Evaluations++
				e.gain2 = t2 - cur - h[0].gain
				e.prevBest = best
				e.hasGain2 = true
			}
		}
		heap.Push(&h, e)
	}
	res.Seeds = seeds
	res.Influence = cur
	res.Elapsed = time.Since(start)
	return res, nil
}

// Greedy is the plain Kempe-et-al. greedy with full re-evaluation each
// round — O(k·n) spread estimations. Provided for completeness and tests.
func Greedy(g *graph.Graph, opt GreedyOptions) (*GreedyResult, error) {
	start := time.Now()
	if err := opt.normalize(g); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	res := &GreedyResult{}
	seeds := make([]uint32, 0, opt.K)
	inSeed := make([]bool, n)
	cur := 0.0
	buf := make([]uint32, 0, opt.K+1)
	for len(seeds) < opt.K {
		bestGain := -1.0
		bestNode := -1
		for v := 0; v < n; v++ {
			if inSeed[v] {
				continue
			}
			buf = append(buf[:0], seeds...)
			buf = append(buf, uint32(v))
			total := spreadOf(g, opt, buf, uint64(v)*31+uint64(len(seeds)))
			res.Evaluations++
			if gain := total - cur; gain > bestGain {
				bestGain = gain
				bestNode = v
			}
		}
		if bestNode < 0 {
			break
		}
		seeds = append(seeds, uint32(bestNode))
		inSeed[bestNode] = true
		cur += bestGain
	}
	res.Seeds = seeds
	res.Influence = cur
	res.Elapsed = time.Since(start)
	return res, nil
}
