package ris

import (
	"math"
	"math/bits"
	"unsafe"

	"stopandstare/internal/diffusion"
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
//   - LT nodes get alias tables over (in-edges + stop), so a reverse-walk
//     step costs one draw and O(1) work instead of the O(d_in) scan of the
//     in-edge weights (refLTStep, reference_test.go). A table depends only
//     on the node's in-edge weights, so nodes whose in-edges share one
//     weight share one table per (d_in, weight): a weighted-cascade graph
//     has one per distinct in-degree. Outcome j of a table is in-edge j, so
//     the walk reads the neighbour from the raw adjacency, as IC's uniform
//     nodes do, and a table holds no per-edge state of its own.
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
//     each take a link of every lane's miss chain (ltRound).
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
//
// A plan holds only what drawing needs. An RR set's width w(R) = Σ_{v∈R}
// d_in(v) is read only by the TIM and Borgs baselines, which compute it
// from the graph.

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

// ltSlot is one alias-table slot of an LT table. A table for in-degree d
// has d+1 slots: outcome j < d is "step along in-edge j" (CSR order),
// outcome d is "stop" (the 1 − Σw deficit). One 64-bit draw resolves a
// step: the high product bits pick the slot, the low bits are the
// within-slot fraction compared against thr(), and alt is the redirect.
// The 64-bit threshold is stored as two 32-bit halves, so the record is 12
// bytes with 4-byte alignment and no padding.
type ltSlot struct {
	thrLo, thrHi uint32 // keep outcome j iff fraction < thr()
	alt          uint32 // alias outcome when the fraction is ≥ thr()
}

// makeLTSlot returns the slot with threshold thr and redirect alt.
func makeLTSlot(thr uint64, alt uint32) ltSlot {
	return ltSlot{thrLo: uint32(thr), thrHi: uint32(thr >> 32), alt: alt}
}

// thr returns the slot's 64-bit threshold.
func (s *ltSlot) thr() uint64 { return uint64(s.thrHi)<<32 | uint64(s.thrLo) }

// Plan is a compiled sampling plan for one (graph, model) pair: immutable
// after compilation and safe to share across goroutines, like the graph it
// was compiled from. Samplers compile one lazily on first use (see
// Sampler.Plan) into the graph's plan slot for the model.
type Plan struct {
	model diffusion.Model
	n     int

	// inIdx/inAdj alias the graph's reverse CSR: IC uniform nodes and every
	// LT node walk the raw adjacency.
	inIdx []int64
	inAdj []uint32

	// IC state. General nodes carry their fused records in gen at window
	// genOff[v]:genOff[v+1].
	class  []uint8
	lnq    []float64 // uniform nodes: ln(1−p), the Geometric parameter
	gen    []planEdge
	genOff []int64 // len n+1; zero-width for uniform nodes, nil if none general

	// LT state: node v's alias table is lt[ltOff[v]:ltOff[v]+d_in(v)+1] (the
	// last slot is the stop outcome). Nodes with equal tables share one.
	lt    []ltSlot
	ltOff []int64 // len n
}

// NewPlan compiles the sampling plan for g under model. Compilation streams
// the reverse CSR once — classification and record emission happen in the
// same per-node visit; LT then reads the weights of the nodes that
// own an alias table once more to build it — and the result shares the
// graph's adjacency storage where the kernel needs no extra per-edge state.
//
// Compilation also checks the content of the reverse sections, which a
// .sasg open does not: inIdx monotone, every inAdj entry a node, every inW
// in [0, 1], and for LT every in-weight sum at most 1+ltTolerance. Each
// check rides a loop that reads the value anyway, except the one pass over
// inAdj (checkSources). A violation returns a *graph.ContentError
// (errors.Is graph.ErrBadContent) and no plan.
func NewPlan(g *graph.Graph, model diffusion.Model) (*Plan, error) {
	n := g.NumNodes()
	idx, adj, w := g.ReverseCSR()
	p := &Plan{model: model, n: n}
	var err error
	if model == diffusion.IC {
		err = p.compileIC(idx, adj, w)
	} else {
		err = p.compileLT(idx, adj, w)
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

// checkSources checks that every in-edge source is a node, in one pass of
// its own: the compile's per-node loops read no sources of IC uniform nodes
// or of LT nodes.
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

// Model returns the model the plan was compiled for.
func (p *Plan) Model() diffusion.Model { return p.model }

// Bytes approximates the plan's own memory (excluding the aliased graph
// arrays). A shared LT table is counted once.
func (p *Plan) Bytes() int64 {
	return int64(cap(p.class)) + int64(cap(p.lnq))*8 +
		int64(cap(p.gen))*16 + int64(cap(p.genOff))*8 +
		int64(cap(p.lt))*int64(unsafe.Sizeof(ltSlot{})) + int64(cap(p.ltOff))*8
}

// compileIC checks each node's in-edges, classifies the node and lays out
// the fused records for the general class, all in one pass over the reverse
// CSR — a mapped graph's pages are touched once. Weighted-cascade graphs
// classify every node uniform, so gen/genOff stay nil and the plan costs
// 9 bytes/node over the graph.
func (p *Plan) compileIC(idx []int64, adj []uint32, w []float32) error {
	n, edges := p.n, int64(len(adj))
	if err := checkSources(adj, n); err != nil {
		return err
	}
	p.inIdx, p.inAdj = idx, adj
	p.class = make([]uint8, n)
	p.lnq = make([]float64, n)
	for v := 0; v < n; v++ {
		lo, hi, err := graph.Span("inIdx", idx, v, edges)
		if err != nil {
			return err
		}
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

// compileLT builds the LT alias tables over each node's in-edges plus the
// stop outcome (probability 1 − Σw, clamped at 0 within ltTolerance), with
// slot probabilities stored as uint64 thresholds. A node's table is a pure
// function of its in-edge weights, so nodes whose in-edges all carry one
// weight (bit for bit) share the table of their (d_in, weight) key, built
// once; a node with mixed weights owns a table. The first pass checks the
// offsets, keys the nodes and lays the tables out, so the second allocates
// the slots once and runs one Vose build per table.
func (p *Plan) compileLT(idx []int64, adj []uint32, w []float32) error {
	n, edges := p.n, int64(len(adj))
	if err := checkSources(adj, n); err != nil {
		return err
	}
	p.inIdx, p.inAdj = idx, adj
	p.ltOff = make([]int64, n)
	shared := make(map[uint64]int64) // (d_in, weight bits) → table offset
	var slots int64
	maxOut := 0
	for v := 0; v < n; v++ {
		lo, hi, err := graph.Span("inIdx", idx, v, edges)
		if err != nil {
			return err
		}
		d := hi - lo
		if key, ok := sharedKey(w[lo:hi]); ok {
			// A node keyed to a built table has its owner's in-weights, bit
			// for bit, so the owner's build checked them.
			if off, seen := shared[key]; seen {
				p.ltOff[v] = off
				continue
			}
			shared[key] = slots
		}
		p.ltOff[v] = slots
		slots += d + 1
		maxOut = max(maxOut, int(d)+1)
	}
	p.lt = make([]ltSlot, slots)
	scaled := make([]float64, maxOut)
	small := make([]int32, 0, maxOut)
	large := make([]int32, 0, maxOut)
	// Tables were laid out in node order, so v owns a table (is the first
	// node keyed to it, or has mixed weights) iff its offset is where the
	// next unbuilt table starts.
	var built int64
	for v := 0; v < n; v++ {
		if p.ltOff[v] != built {
			continue
		}
		lo, hi := idx[v], idx[v+1]
		m := hi - lo + 1
		if err := buildLT(v, lo, w[lo:hi], p.lt[built:built+m], scaled, small, large); err != nil {
			return err
		}
		built += m
	}
	return nil
}

// sharedKey returns the table key (d_in, weight bits) of the node whose
// in-weights are ws, and whether they all carry one weight.
func sharedKey(ws []float32) (uint64, bool) {
	var b uint32
	if len(ws) > 0 {
		b = math.Float32bits(ws[0])
	}
	for i := 1; i < len(ws); i++ {
		if math.Float32bits(ws[i]) != b {
			return 0, false
		}
	}
	return uint64(len(ws))<<32 | uint64(b), true
}

// buildLT runs the Vose build of node v's alias table into slots, over the
// in-weights ws (in-edge lo onward) and the stop deficit, checking each
// weight and then the in-weight sum. scaled, small and large are scratch of
// capacity ≥ len(slots).
func buildLT(v int, lo int64, ws []float32, slots []ltSlot, scaled []float64, small, large []int32) error {
	sum := 0.0
	for i, wi := range ws {
		if err := badWeight(lo+int64(i), wi); err != nil {
			return err
		}
		sum += float64(wi)
	}
	stop := max(1-sum, 0)
	total := sum + stop
	// Outcome weights: the d in-edge weights, then the stop deficit.
	d, m := len(ws), len(slots)
	for j := 0; j < m; j++ {
		wj := stop
		if j < d {
			wj = float64(ws[j])
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
		slots[s] = makeLTSlot(rng.Threshold64(scaled[s]), uint32(l))
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, l := range large {
		slots[l] = makeLTSlot(math.MaxUint64, uint32(l))
	}
	for _, s := range small { // numerical leftovers
		slots[s] = makeLTSlot(math.MaxUint64, uint32(s))
	}
	if sum > 1+ltTolerance {
		return &graph.ContentError{Section: "inW", Index: int64(v), Err: graph.ErrLTViolation}
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
func (p *Plan) icFrontier(r *rng.Source, vis []uint64, buf []uint32, head int) []uint32 {
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
		if visit(vis, u) {
			buf[w] = u
			w++
		}
	}
	return buf[:w]
}

// ltRound advances each live lane of ls (bit i of live set) one step of its
// LT reverse walk, and returns the set of lanes whose walk ended. A step is
// one draw whose high product bits pick a slot of the alias table of the
// lane's node and whose low bits resolve the redirect; it either moves the
// lane along the picked in-edge to its source, newly marked and appended to
// the lane's buf, or ends the walk: by the stop outcome (the threshold
// deficit) or by a revisit (Def. 2's LT reverse walk). Each step is a chain
// of dependent misses — the node's table offset and in-edge span, the slot,
// the edge's source, the source's mark — so the round runs in passes that
// each take a link of every lane's chain, and the lanes' misses of one link
// are in flight together. The last pass takes two links: reading the
// sources in a pass of their own measured no faster.
func (p *Plan) ltRound(ls []lane, live uint) (ended uint) {
	var tab, edge [ltLanes]int64
	var nslots [ltLanes]uint64
	for i := range ls {
		if live&(1<<i) != 0 {
			x := ls[i].x
			tab[i], edge[i] = p.ltOff[x], p.inIdx[x]
			nslots[i] = uint64(p.inIdx[x+1]-edge[i]) + 1
		}
	}
	for i := range ls {
		if live&(1<<i) == 0 {
			continue
		}
		j, frac := bits.Mul64(ls[i].r.Uint64(), nslots[i])
		if s := &p.lt[tab[i]+int64(j)]; frac >= s.thr() {
			j = uint64(s.alt)
		}
		if j == nslots[i]-1 {
			ended |= 1 << i // stop outcome: the threshold deficit won
		}
		edge[i] += int64(j)
	}
	for i := range ls {
		if live&^ended&(1<<i) == 0 {
			continue
		}
		l := &ls[i]
		if u := p.inAdj[edge[i]]; visit(l.vis, u) {
			l.buf = append(l.buf, u)
			l.x = u
		} else {
			ended |= 1 << i
		}
	}
	return ended
}
