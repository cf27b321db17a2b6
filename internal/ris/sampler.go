// Package ris implements Reverse Influence Sampling (§3.1.1): generation of
// random Reverse Reachable (RR) sets under the IC and LT models (Def. 2),
// the weighted-root WRIS variant used by targeted viral marketing (§7.3.1),
// and a deterministic, parallel, indexed collection of RR sets that SSA,
// D-SSA, IMM and TIM draw from.
package ris

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// Sampler generates random RR sets from a graph under a propagation model.
// The zero-weight case (uniform root selection) corresponds to classic RIS;
// a weighted sampler implements WRIS, where the root is chosen
// proportionally to each node's benefit b(v) and estimates scale by
// Γ = Σ_v b(v) instead of n (Lemma 1 and its weighted analogue).
//
// RR sets are drawn through the compiled plan (plan.go). RR set i is a pure
// function of (seed, i) for any worker, shard, or store topology; the
// statistical harness in plan_test.go checks the plan's distribution against
// the direct Bernoulli translation of Def. 2 (refSampler, reference_test.go).
type Sampler struct {
	g       *graph.Graph
	model   diffusion.Model
	root    *rng.Alias  // nil ⇒ uniform root
	weights []float64   // WRIS benefit weights; retained so remote shards can rebuild the alias table
	scale   float64     // n for RIS, Γ for WRIS
	plan    *graph.Slot // the graph's slot for this model's compiled plan
	stream  uint64      // ORed into every set id's stream: 0, or verifyStream (VerifySampler)
}

// ErrNilGraph reports a missing graph.
var ErrNilGraph = errors.New("ris: nil graph")

// NewSampler returns a uniform-root (classic RIS) sampler. Its compiled plan
// lives on the graph (graph.PlanSlot): every sampler on the same *Graph and
// model — across Sessions, one-shot runs, WRIS and plain variants — shares
// one compilation.
func NewSampler(g *graph.Graph, model diffusion.Model) (*Sampler, error) {
	slot, err := planSlot(g, model)
	if err != nil {
		return nil, err
	}
	return &Sampler{g: g, model: model, scale: float64(g.NumNodes()), plan: slot}, nil
}

// planSlot resolves g's plan slot for model.
func planSlot(g *graph.Graph, model diffusion.Model) (*graph.Slot, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if model != diffusion.IC && model != diffusion.LT {
		return nil, fmt.Errorf("ris: unknown model %v", model)
	}
	return g.PlanSlot(int(model)), nil
}

// NewWeightedSampler returns a WRIS sampler whose roots are drawn
// proportionally to weights (benefit values b(v) ≥ 0).
func NewWeightedSampler(g *graph.Graph, model diffusion.Model, weights []float64) (*Sampler, error) {
	slot, err := planSlot(g, model)
	if err != nil {
		return nil, err
	}
	if len(weights) != g.NumNodes() {
		return nil, errors.New("ris: weights length must equal NumNodes")
	}
	al, err := rng.NewAlias(weights)
	if err != nil {
		return nil, err
	}
	return &Sampler{g: g, model: model, root: al, weights: weights, scale: al.Total(),
		plan: slot}, nil
}

// VerifySampler returns a copy of s whose set id i is drawn from the
// verification stream SeedVerifyStream(seed, i) instead of (seed, i). A
// store built on it holds exactly the RR sets SSA's Estimate-Inf walks, so a
// long-lived session can keep them across queries. The copy shares s's
// compiled plan.
func (s *Sampler) VerifySampler() *Sampler {
	v := *s
	v.stream = verifyStream
	return &v
}

// Plan returns the compiled sampling plan, compiling it into the graph's
// slot on first use: however many samplers, stores or sessions touch the
// graph, the O(n + m) compile happens once, and the plan lives as long as
// the graph. A graph whose reverse sections fail the compile's content
// checks returns that *graph.ContentError here, to every sampler, without
// compiling again. Safe for concurrent callers.
func (s *Sampler) Plan() (*Plan, error) {
	v, err := s.plan.Resolve(func() (any, error) { return NewPlan(s.g, s.model) })
	p, _ := v.(*Plan)
	return p, err
}

// mustPlan is Plan for the single-walk entry points (AppendSample,
// Sample), which return no error: their callers resolve Plan first, so a
// content error here is a caller's bug and panics.
func (s *Sampler) mustPlan() *Plan {
	p, err := s.Plan()
	if err != nil {
		panic(err)
	}
	return p
}

// PlanBytes reports the compiled plan's memory, 0 if it was never compiled.
// Non-forcing, for memory accounting.
func (s *Sampler) PlanBytes() int64 {
	if p, _ := s.plan.Value().(*Plan); p != nil {
		return p.Bytes()
	}
	return 0
}

// Graph returns the underlying graph.
func (s *Sampler) Graph() *graph.Graph { return s.g }

// Model returns the propagation model.
func (s *Sampler) Model() diffusion.Model { return s.model }

// Scale returns the estimator scale: n for RIS, Γ = Σ b(v) for WRIS.
// Î(S) = Scale · Cov_R(S)/|R| (Lemma 1).
func (s *Sampler) Scale() float64 { return s.scale }

// Weighted reports whether this is a WRIS sampler.
func (s *Sampler) Weighted() bool { return s.root != nil }

// ltLanes is the number of LT reverse walks one sampler worker advances
// round-robin in the chunk path (sampleChunk). Each step of a walk is a
// chain of dependent cache misses (the node's alias slot, the source of the
// in-edge it picks, that source's mark); independent walks overlap their
// chains. On the dblp preset at scale 0.4, one worker, two lanes measured
// about 1.5× one and four about 1.9×; eight were no better than four.
const ltLanes = 4

// lane is one reverse walk: its own stream, visited set and arena. In the
// chunk path the arena holds the lane's finished sets of the chunk, then
// the walk in progress from start on.
type lane struct {
	r     rng.Source
	vis   []uint64 // visited nodes, one bit each; all clear between walks
	buf   []uint32
	start int    // offset in buf of the walk in progress
	x     uint32 // the walk's current node
	id    int    // global id of the walk in progress (chunk path)
}

// laneSpan locates one finished set of a chunk in its lane's arena.
type laneSpan struct {
	lane     int
	from, to int
}

// State is the per-goroutine scratch for RR-set generation. A lane's
// visited set is a bitset over the nodes that is all clear between walks:
// when a walk ends, the words of its members are zeroed (unvisit), which
// clears it exactly at the cost of the set's size, not an O(n) sweep.
// Single-set walks (AppendSample, the IC chunk path) use lane 0; the LT
// chunk path sizes the other lanes' bitsets on first use, so a worker
// holds at most ltLanes·n/8 bytes of them.
type State struct {
	lanes [ltLanes]lane
	spans []laneSpan // LT chunk path: finished sets by chunk position
	// icPerSet is the IC chunk path's items per set in the last chunk this
	// State sampled (0 before the first), which sizes the next chunk's
	// buffer so that it is not regrown by append.
	icPerSet float64
}

// NewState allocates sampling scratch for the sampler's graph; a State
// serves samplers on that graph only.
func (s *Sampler) NewState() *State {
	st := &State{}
	st.lanes[0].vis = make([]uint64, visWords(s.g.NumNodes())) // size the single-walk bitset once, up front
	return st
}

// visWords is the length of a visited bitset over n nodes.
func visWords(n int) int { return (n + 63) >> 6 }

// visit marks u in vis and reports whether it was clear.
func visit(vis []uint64, u uint32) bool {
	w, bit := &vis[u>>6], uint64(1)<<(u&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// unvisit clears vis after a walk that marked exactly the nodes of set:
// every set bit is a member, so zeroing each member's word clears them all.
func unvisit(vis []uint64, set []uint32) {
	for _, u := range set {
		vis[u>>6] = 0
	}
}

// AppendSample generates one RR set using r and appends its nodes to buf.
// It returns the grown buffer and the number of nodes appended; the set
// occupies buf[len(buf)-setLen:]. For the LT model the nodes appear in
// reverse-walk order (root first), which tests rely on.
func (s *Sampler) AppendSample(r *rng.Source, st *State, buf []uint32) (newBuf []uint32, setLen int) {
	start := len(buf)
	buf = s.walk(s.mustPlan(), r, st, buf)
	return buf, len(buf) - start
}

// open draws the root of r's set and starts l's walk: the root is marked
// in l's visited set, which is all clear before, and appended to buf.
func (s *Sampler) open(r *rng.Source, l *lane, buf []uint32) ([]uint32, uint32) {
	var root uint32
	if s.root != nil {
		root = uint32(s.root.Sample(r))
	} else {
		root = uint32(r.Intn(s.g.NumNodes()))
	}
	visit(l.vis, root)
	return append(buf, root), root
}

// walk draws one RR set from r through p on lane 0 and appends it to buf,
// leaving lane 0's visited set clear.
func (s *Sampler) walk(p *Plan, r *rng.Source, st *State, buf []uint32) []uint32 {
	l := &st.lanes[0]
	start := len(buf)
	buf, root := s.open(r, l, buf)
	if p.model == diffusion.IC {
		for head := start; head < len(buf); {
			end := len(buf)
			buf = p.icFrontier(r, l.vis, buf, head)
			head = end
		}
	} else {
		// One lane of the chunk path's LT kernel, run on the caller's
		// stream and buffer.
		l.r, l.buf, l.x = *r, buf, root
		for p.ltRound(st.lanes[:1], 1) == 0 {
		}
		*r, buf = l.r, l.buf
		l.buf = nil // the caller owns buf
	}
	unvisit(l.vis, buf[start:])
	return buf
}

// sampleChunk generates the RR sets with global ids [lo, hi), set id from
// stream (seed, id), into res, whose buffers it reuses and grows: a scan
// that samples window after window keeps one set of them. IC draws one set
// at a time (each frontier is already batched, see Plan.icFrontier). LT
// runs ltLanes walks round-robin, one step each per turn: a finished lane
// records its set and takes the chunk's next id, and the sets are emitted
// in id order at the end, so the chunk is exactly the one a one-walk loop
// produces. p is s's compiled plan, resolved before the sampler goroutines
// start.
func (s *Sampler) sampleChunk(p *Plan, st *State, seed uint64, lo, hi int, res *chunkResult) {
	res.offsets = append(slices.Grow(res.offsets[:0], hi-lo+1), 0)
	if p.model == diffusion.IC {
		// The chunks' sets are draws from one distribution, so the last
		// chunk's items per set, plus an eighth, usually hold this one.
		perSet := 4.0
		if st.icPerSet > 0 {
			perSet = st.icPerSet * 9 / 8
		}
		buf := slices.Grow(res.buf[:0], int(perSet*float64(hi-lo))+1)
		r := &st.lanes[0].r
		for id := lo; id < hi; id++ {
			r.SeedStream(seed, uint64(id)|s.stream)
			buf = s.walk(p, r, st, buf)
			res.offsets = append(res.offsets, int32(len(buf)))
		}
		st.icPerSet = float64(len(buf)) / float64(hi-lo)
		res.buf = buf
		return
	}
	st.spans = slices.Grow(st.spans[:0], hi-lo)[:hi-lo]
	next, live := lo, uint(0)
	for i := range st.lanes {
		l := &st.lanes[i]
		// A lane walks about a quarter of the chunk's sets; LT sets average
		// a few nodes, so this usually covers the lane for every chunk.
		l.buf = slices.Grow(l.buf[:0], hi-lo)
		if next < hi {
			s.openLane(l, seed, next)
			next++
			live |= 1 << i
		}
	}
	for live != 0 {
		for ended := p.ltRound(st.lanes[:], live); ended != 0; ended &= ended - 1 {
			i := bits.TrailingZeros(ended)
			l := &st.lanes[i]
			unvisit(l.vis, l.buf[l.start:])
			st.spans[l.id-lo] = laneSpan{lane: i, from: l.start, to: len(l.buf)}
			if next < hi {
				s.openLane(l, seed, next)
				next++
			} else {
				live &^= 1 << i
			}
		}
	}
	items := 0
	for i := range st.lanes {
		items += len(st.lanes[i].buf)
	}
	res.buf = slices.Grow(res.buf[:0], items)
	for _, sp := range st.spans {
		res.buf = append(res.buf, st.lanes[sp.lane].buf[sp.from:sp.to]...)
		res.offsets = append(res.offsets, int32(len(res.buf)))
	}
}

// openLane starts lane l on the walk of set id.
func (s *Sampler) openLane(l *lane, seed uint64, id int) {
	if l.vis == nil {
		l.vis = make([]uint64, visWords(s.g.NumNodes()))
	}
	l.r.SeedStream(seed, uint64(id)|s.stream)
	l.start = len(l.buf)
	l.buf, l.x = s.open(&l.r, l, l.buf)
	l.id = id
}

// Sample generates one RR set into a fresh slice (convenience for tests).
func (s *Sampler) Sample(r *rng.Source, st *State) []uint32 {
	buf, _ := s.AppendSample(r, st, nil)
	return buf
}
