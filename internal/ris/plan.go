package ris

import (
	"math"
	"math/bits"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/epoch"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// This file implements compiled sampling plans: a per-(graph, model)
// preprocessing pass that classifies every node's in-edge list and emits a
// sampling-specific layout, so the RR-generation inner loop — the entire
// cost of the pipeline once solving and indexing are incremental — does as
// little per-edge work as the distribution allows:
//
//   - uniform-weight nodes (ALL nodes of a weighted-cascade graph, where
//     w(u,v) = 1/d_in(v) is shared by every in-edge of v) sample the next
//     live in-edge by geometric skipping: one draw lands on the next
//     success, collapsing d_in Bernoulli draws to ~1 + #live;
//   - general (mixed-weight) nodes precompute each edge's activation
//     threshold as a uint64, interleaved with the neighbour id in one fused
//     record, so the inner loop is a single integer compare with no float
//     conversion and no second cache stream for the weights;
//   - LT nodes get per-node alias tables over (in-neighbours + stop), so a
//     reverse-walk step costs one draw and O(1) work instead of the
//     O(d_in) scan of the in-edge weights (refLTStep, reference_test.go).
//
// On a graph larger than the cache, what is left of a sample's cost is
// stalls on dependent loads, so the kernel is shaped to keep several
// misses in flight at once:
//
//   - IC expands the reverse BFS one frontier at a time (icFrontier): it
//     first draws every live edge of the whole frontier in queue order,
//     then visits the edges' sources in the same order;
//   - LT advances ltLanes independent walks per sampler worker
//     (Sampler.sampleChunk), one step of each per round, in passes that
//     each take one link of every lane's miss chain (ltRound).
//
// AppendSample, HitsMarked and the chunk path all run these two kernels
// (a single walk is one lane), and both keep each set's draws and visit
// order exactly those of a one-walk-at-a-time loop (seqSample,
// reference_test.go, pinned by FuzzKernelAgainstSequential and
// TestStreamPinned).
//
// The plan is the only production sampler. Its draw sequence differs from
// the direct per-edge Bernoulli translation of Def. 2 (refSampler in
// reference_test.go), so the two agree in distribution, not set by set —
// and the distribution is all the paper's guarantees depend on.
// plan_test.go's statistical harness checks that agreement. RR set i is a
// pure function of (seed, i), generation is worker-count independent, and
// every store topology stays bit-identical (the differential harness).

// IC node classes.
const (
	classUniform uint8 = iota // all in-edges share one weight: geometric skipping
	classGeneral              // mixed weights: fused uint64-threshold records
)

// planEdge is the fused per-edge record of general (mixed-weight) IC nodes:
// the activation threshold and the neighbour id in one 16-byte stride, so
// the kernel touches a single sequential stream instead of parallel
// adjacency and weight arrays.
type planEdge struct {
	thr uint64 // edge is live iff Bernoulli64(thr)
	nbr uint32 // in-neighbour (edge source)
	_   uint32 // padding, keeps the stride explicit
}

// ltSlot is one alias-table slot of an LT node. A node with in-degree d has
// d+1 slots: outcome j < d is "step to in-neighbour nbr", outcome d is
// "stop" (the 1 − Σw deficit). One 64-bit draw resolves a step: the high
// product bits pick the slot, the low bits are the within-slot fraction
// compared against thr, and the alias redirect plus the neighbour id live
// in the same record.
type ltSlot struct {
	thr uint64 // keep outcome j iff fraction < thr
	alt uint32 // alias outcome when the fraction is ≥ thr
	nbr uint32 // in-neighbour of outcome j (unused for the stop slot)
}

// Plan is a compiled sampling plan for one (graph, model) pair: immutable
// after compilation and safe to share across goroutines, like the graph it
// was compiled from. Samplers compile one lazily on first use (see
// Sampler.Plan) into the graph's plan slot for the model.
type Plan struct {
	model diffusion.Model
	n     int
	deg   []int32 // in-degree per node: width accounting without inIdx lookups

	// IC state. inIdx/inAdj alias the graph's reverse CSR (uniform nodes
	// walk the raw adjacency — skipping needs no weights); general nodes
	// carry their fused records in gen at window genOff[v]:genOff[v+1].
	class  []uint8
	lnq    []float64 // uniform nodes: ln(1−p), the Geometric parameter
	inIdx  []int64
	inAdj  []uint32
	gen    []planEdge
	genOff []int64 // len n+1; zero-width for uniform nodes, nil if none general

	// LT state: node v's alias slots are lt[ltOff[v]:ltOff[v+1]]
	// (in-degree + 1 of them; the last is the stop outcome).
	lt    []ltSlot
	ltOff []int64
}

// NewPlan compiles the sampling plan for g under model. Compilation streams
// the reverse CSR once — degrees, classification and record emission happen
// in the same per-node visit (plus the per-node Vose builds for LT), so a
// mapped graph's idx/adj/weight pages are forced exactly one time — and the
// result shares the graph's adjacency storage where the kernel needs no
// extra per-edge state.
//
// Compilation also checks the content of the reverse sections, which a
// .sasg open does not: inIdx monotone, every inAdj entry a node, every inW
// in [0, 1], and for LT every in-weight sum at most 1+ltTolerance. Each
// check rides a loop that reads the value anyway, except IC's one pass over
// inAdj. A violation returns a *graph.ContentError (errors.Is
// graph.ErrBadContent) and no plan.
func NewPlan(g *graph.Graph, model diffusion.Model) (*Plan, error) {
	n := g.NumNodes()
	idx, adj, w := g.ReverseCSR()
	p := &Plan{model: model, n: n, deg: make([]int32, n)}
	var err error
	if model == diffusion.IC {
		err = p.compileIC(idx, adj, w)
	} else {
		err = p.compileLT(g, idx, adj, w)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ltTolerance is how far an LT in-weight sum may exceed 1, for float32
// weights such as weighted cascade's 1/d_in that sum to 1 only up to
// rounding; the stop outcome of such a node is clamped at 0.
const ltTolerance = 1e-6

// checkSpan checks node v's window of the reverse offsets, lo = idx[v] to
// hi = idx[v+1]: monotone and within the graph's edges. The ends of idx, 0
// and the edge count, are checked at open.
func checkSpan(v int, lo, hi, edges int64) error {
	if hi < lo || hi > edges {
		return &graph.ContentError{Section: "inIdx", Index: int64(v) + 1}
	}
	return nil
}

// checkSources checks that every in-edge source is a node, in one pass of
// its own: the IC compile's per-node loop reads no sources of uniform nodes.
func checkSources(adj []uint32, n int) error {
	for i, u := range adj {
		if int64(u) >= int64(n) {
			return &graph.ContentError{Section: "inAdj", Index: int64(i), Err: graph.ErrBadEndpoint}
		}
	}
	return nil
}

// badWeight reports in-edge i's weight when it is outside [0, 1] (NaN is).
func badWeight(i int64, w float32) error {
	if w >= 0 && w <= 1 {
		return nil
	}
	return &graph.ContentError{Section: "inW", Index: i, Err: graph.ErrBadWeight}
}

// badEdge reports in-edge i when its source u is not a node or its weight
// w is outside [0, 1].
func badEdge(i int64, u uint32, w float32, n int) error {
	if int64(u) >= int64(n) {
		return &graph.ContentError{Section: "inAdj", Index: i, Err: graph.ErrBadEndpoint}
	}
	return badWeight(i, w)
}

// Model returns the model the plan was compiled for.
func (p *Plan) Model() diffusion.Model { return p.model }

// Bytes approximates the plan's own memory (excluding the aliased graph
// arrays).
func (p *Plan) Bytes() int64 {
	return int64(cap(p.deg))*4 + int64(cap(p.class)) + int64(cap(p.lnq))*8 +
		int64(cap(p.gen))*16 + int64(cap(p.genOff))*8 +
		int64(cap(p.lt))*16 + int64(cap(p.ltOff))*8
}

// compileIC checks each node's in-edges, classifies the node, records its
// degree and lays out the fused records for the general class, all in one
// pass over the reverse CSR — a mapped graph's pages are touched once.
// Weighted-cascade graphs classify every node uniform, so gen/genOff stay
// nil and the plan costs 13 bytes/node over the graph.
func (p *Plan) compileIC(idx []int64, adj []uint32, w []float32) error {
	n, edges := p.n, int64(len(adj))
	if err := checkSources(adj, n); err != nil {
		return err
	}
	p.inIdx, p.inAdj = idx, adj
	p.class = make([]uint8, n)
	p.lnq = make([]float64, n)
	for v := 0; v < n; v++ {
		lo, hi := idx[v], idx[v+1]
		if err := checkSpan(v, lo, hi, edges); err != nil {
			return err
		}
		p.deg[v] = int32(hi - lo)
		ws := w[lo:hi]
		uniform := true
		for i := 1; i < len(ws); i++ {
			if ws[i] != ws[0] {
				uniform = false
				break
			}
		}
		if uniform {
			if len(ws) > 0 {
				// Weights equal to ws[0] share its validity: NaN equals
				// nothing, so a NaN makes the node general.
				if err := badWeight(lo, ws[0]); err != nil {
					return err
				}
				p.lnq[v] = rng.LogQ(float64(ws[0]))
			}
			if p.genOff != nil {
				p.genOff[v+1] = int64(len(p.gen))
			}
			continue
		}
		p.class[v] = classGeneral
		if p.genOff == nil {
			// First mixed-weight node: the zeroed prefix of a fresh genOff is
			// already correct for every uniform node seen so far.
			p.genOff = make([]int64, n+1)
		}
		for i := lo; i < hi; i++ {
			if err := badWeight(i, w[i]); err != nil {
				return err
			}
			p.gen = append(p.gen, planEdge{thr: rng.Threshold64(float64(w[i])), nbr: adj[i]})
		}
		p.genOff[v+1] = int64(len(p.gen))
	}
	return nil
}

// compileLT builds one Vose alias table per node over its in-neighbours
// plus the stop outcome (probability 1 − Σw, clamped at 0 within
// ltTolerance), with slot probabilities stored as uint64 thresholds,
// checking each in-edge as it reads it and then the node's in-weight sum.
func (p *Plan) compileLT(g *graph.Graph, idx []int64, adj []uint32, w []float32) error {
	n, edges := p.n, int64(len(adj))
	p.ltOff = make([]int64, n+1)
	// One pass over the offset table checks it and fills degrees, the slot
	// offsets and the Vose scratch bound together.
	maxOut := 0
	for v := 0; v < n; v++ {
		if err := checkSpan(v, idx[v], idx[v+1], edges); err != nil {
			return err
		}
		d := int32(idx[v+1] - idx[v])
		p.deg[v] = d
		p.ltOff[v+1] = p.ltOff[v] + int64(d) + 1
		if int(d)+1 > maxOut {
			maxOut = int(d) + 1
		}
	}
	p.lt = make([]ltSlot, p.ltOff[n])
	scaled := make([]float64, maxOut)
	small := make([]int32, 0, maxOut)
	large := make([]int32, 0, maxOut)
	for v := 0; v < n; v++ {
		d := int(p.deg[v])
		slots := p.lt[p.ltOff[v]:p.ltOff[v+1]]
		sum := g.InWeightSum(uint32(v))
		stop := max(1-sum, 0)
		total := sum + stop
		// Outcome weights: the d in-edge weights, then the stop deficit.
		m := d + 1
		small, large = small[:0], large[:0]
		for j := 0; j < m; j++ {
			var wj float64
			if j < d {
				i := idx[v] + int64(j)
				if err := badEdge(i, adj[i], w[i], n); err != nil {
					return err
				}
				wj = float64(w[i])
				slots[j].nbr = adj[i]
			} else {
				wj = stop
			}
			scaled[j] = wj * float64(m) / total
			if scaled[j] < 1 {
				small = append(small, int32(j))
			} else {
				large = append(large, int32(j))
			}
		}
		for len(small) > 0 && len(large) > 0 {
			s := small[len(small)-1]
			small = small[:len(small)-1]
			l := large[len(large)-1]
			large = large[:len(large)-1]
			slots[s].thr = rng.Threshold64(scaled[s])
			slots[s].alt = uint32(l)
			scaled[l] = (scaled[l] + scaled[s]) - 1
			if scaled[l] < 1 {
				small = append(small, l)
			} else {
				large = append(large, l)
			}
		}
		for _, l := range large {
			slots[l].thr = math.MaxUint64
			slots[l].alt = uint32(l)
		}
		for _, s := range small { // numerical leftovers
			slots[s].thr = math.MaxUint64
			slots[s].alt = uint32(s)
		}
		if sum > 1+ltTolerance {
			return &graph.ContentError{Section: "inW", Index: int64(v), Err: graph.ErrLTViolation}
		}
	}
	return nil
}

// icFrontier expands one level of the IC reverse BFS: buf[head:] is the
// frontier, and the members it newly reaches are appended to buf in exactly
// the order the one-node-at-a-time BFS visits them. It runs in two phases.
// The draw phase walks the frontier in queue order and appends the source
// of every live in-edge to buf as a candidate. Those draws depend on the
// RNG, the plan's per-node parameters and the degree, never on the marks,
// so they are the draws of the sequential BFS. The visit phase then marks
// the candidates in the same order and keeps the first visits, compacting
// buf in place. Neither phase carries a dependence from one node or
// candidate to the next, so the CPU keeps the frontier's adjacency and mark
// misses in flight together.
func (p *Plan) icFrontier(r *rng.Source, m *epoch.Marks, buf []uint32, head int) []uint32 {
	end := len(buf)
	for k := head; k < end; k++ {
		x := buf[k]
		if p.class[x] != classUniform {
			// Fused threshold records: one integer compare per edge.
			for _, e := range p.gen[p.genOff[x]:p.genOff[x+1]] {
				if r.Bernoulli64(e.thr) {
					buf = append(buf, e.nbr)
				}
			}
			continue
		}
		adj := p.inAdj[p.inIdx[x]:p.inIdx[x+1]]
		if len(adj) == 0 {
			continue
		}
		// Geometric skipping: each draw jumps to the next live edge, so the
		// node costs 1 + #live draws instead of d_in.
		lnq := p.lnq[x]
		for i := r.Geometric(lnq); i < int64(len(adj)); i += 1 + r.Geometric(lnq) {
			buf = append(buf, adj[i])
		}
	}
	w := end
	for _, u := range buf[end:] {
		if m.Visit(int32(u)) {
			buf[w] = u
			w++
		}
	}
	return buf[:w]
}

// ltRound advances each live lane of ls (bit i of live set) one step of its
// LT reverse walk, and returns the set of lanes whose walk ended. A step is
// one draw whose high product bits pick the alias slot of the lane's node
// and whose low bits resolve the redirect; it either moves the lane to the
// picked in-neighbour, newly marked and appended to the lane's buf, or ends
// the walk: by the stop outcome (the threshold deficit) or by a revisit
// (Def. 2's LT reverse walk). Each step is a chain of dependent misses —
// the node's slot offsets, the slot, the neighbour's mark — so the round
// runs in three passes, one link of every lane's chain per pass, and the
// lanes' misses of one link are in flight together.
func (p *Plan) ltRound(ls []lane, live uint) (ended uint) {
	var base [ltLanes]int64
	var nslots [ltLanes]uint64
	for i := range ls {
		if live&(1<<i) != 0 {
			base[i] = p.ltOff[ls[i].x]
			nslots[i] = uint64(p.ltOff[ls[i].x+1] - base[i])
		}
	}
	var nbr [ltLanes]uint32
	for i := range ls {
		if live&(1<<i) == 0 {
			continue
		}
		j, frac := bits.Mul64(ls[i].r.Uint64(), nslots[i])
		s := &p.lt[base[i]+int64(j)]
		if frac >= s.thr {
			j = uint64(s.alt)
			s = &p.lt[base[i]+int64(j)]
		}
		if j == nslots[i]-1 {
			ended |= 1 << i // stop outcome: the threshold deficit won
		}
		nbr[i] = s.nbr
	}
	for i := range ls {
		if live&^ended&(1<<i) == 0 {
			continue
		}
		l := &ls[i]
		if u := nbr[i]; l.marks.Visit(int32(u)) {
			l.buf = append(l.buf, u)
			l.x = u
		} else {
			ended |= 1 << i
		}
	}
	return ended
}

// width returns w(R) = Σ_{v∈R} d_in(v) for a set.
func (p *Plan) width(set []uint32) int64 {
	var w int64
	for _, v := range set {
		w += int64(p.deg[v])
	}
	return w
}
