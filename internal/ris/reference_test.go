package ris

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// This file holds the independent references the store tests compare
// against, so that no test checks the production store against itself.
//
// refStore is the Store contract's DEFINITION: RR set i is Sampler.Sample
// on the PRNG stream (seed, i), kept as one slice per set with per-node id
// lists appended in id order, every query answered by the obvious scan. It
// shares no code with segment, the CSR index, the spill tier, the snapshot
// format or the parallel chunk sampler, so agreement with it is evidence
// about those rather than a tautology. It implements Store so the full
// algorithms (core.SSAWith/DSSAWith, the maxcover solvers) can run on it;
// the tiering methods are inert.
//
// scanCoverage and scanIndex are the mark-vector / arena-scan oracles for a
// store under test: O(items) passes over ForEachSet that never touch the
// inverted index they are used to check.
//
// refSampler is the sampling DEFINITION (Def. 2) that the compiled plan is
// checked against in plan_test.go.
//
// seqSample is the compiled plan's kernel written as one walk at a time:
// the bit-identity oracle for the lane-interleaved LT walks and the
// frontier-batched IC draws (FuzzKernelAgainstSequential).
//
// refLTTable is the LT alias table of one node built for that node alone:
// the oracle for the plan's shared tables (TestLTSharedTables).

// refSampler draws RR sets by the direct translation of Def. 2: one float
// Bernoulli draw per IC in-edge examined, one linear scan of the in-edge
// weights (refLTStep) per LT step, the graph read only through its
// accessors. It draws the root exactly as Sampler.AppendSample does and
// shares nothing else with the compiled plan, so the two consume different
// draw sequences and agree only in distribution — which is what the
// harness checks.
type refSampler struct{ s *Sampler }

func (rs refSampler) NewState() *State { return rs.s.NewState() }

// AppendSample has Sampler.AppendSample's contract: one RR set appended to
// buf, and its length.
func (rs refSampler) AppendSample(r *rng.Source, st *State, buf []uint32) ([]uint32, int) {
	s, g := rs.s, rs.s.g
	var root uint32
	if s.root != nil {
		root = uint32(s.root.Sample(r))
	} else {
		root = uint32(r.Intn(g.NumNodes()))
	}
	seen := map[uint32]bool{root: true} // its own visited set, not the State's
	start := len(buf)
	buf = append(buf, root)
	if s.model == diffusion.IC {
		// Reverse BFS: edge (u,x) is live with probability w(u,x); every
		// in-edge of a member is examined exactly once.
		for head := start; head < len(buf); head++ {
			x := buf[head]
			adj, ws := g.InNeighbors(x)
			for i, u := range adj {
				if seen[u] {
					continue
				}
				if r.Float64() < float64(ws[i]) {
					seen[u] = true
					buf = append(buf, u)
				}
			}
		}
	} else {
		// LT reverse walk: at x pick one in-neighbour proportionally to
		// w(u,x) (stop with probability 1 − Σw); terminate on revisit.
		x := root
		for {
			u, ok := refLTStep(g, x, r.Float64())
			if !ok || seen[u] {
				break
			}
			seen[u] = true
			buf = append(buf, u)
			x = u
		}
	}
	return buf, len(buf) - start
}

// refLTStep maps a uniform draw u01 ∈ [0,1) to the LT reverse-walk step at
// v: the first in-neighbour whose running weight sum, in CSR order, exceeds
// u01, or ok = false (the walk stops) when u01 ≥ Σ_u w(u,v). Each
// in-neighbour is chosen with probability w(u,v), and the walk stops with
// probability 1 − Σ_u w(u,v).
func refLTStep(g *graph.Graph, v uint32, u01 float64) (u uint32, ok bool) {
	adj, ws := g.InNeighbors(v)
	sum := 0.0
	for i, w := range ws {
		if sum += float64(w); u01 < sum {
			return adj[i], true
		}
	}
	return 0, false
}

// refLTTable runs the Vose build of node v's LT alias table on its own,
// over v's in-edge weights (read through the graph's accessors) and the
// stop deficit 1 − Σw, clamped at 0: the per-node build the compiled plan
// did before nodes with equal in-weights shared one table. Slot j < d is
// in-edge j, slot d is the stop outcome.
func refLTTable(g *graph.Graph, v uint32) []ltSlot {
	_, ws := g.InNeighbors(v)
	sum := g.InWeightSum(v)
	stop := max(1-sum, 0)
	total := sum + stop
	d, m := len(ws), len(ws)+1
	slots := make([]ltSlot, m)
	scaled := make([]float64, m)
	var small, large []int32
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
	for _, s := range small {
		slots[s] = makeLTSlot(math.MaxUint64, uint32(s))
	}
	return slots
}

// seqSample draws RR set (r's stream) through s's compiled plan one walk at
// a time: the IC reverse BFS draws and visits each queued node's in-edges
// before moving to the next node, the LT walk takes one step per loop. It
// appends the set to buf. Its visited set is its own, a fresh []bool per
// call, so the oracle shares no state with the production bitsets.
func seqSample(s *Sampler, r *rng.Source, buf []uint32) []uint32 {
	p := s.mustPlan()
	var root uint32
	if s.root != nil {
		root = uint32(s.root.Sample(r))
	} else {
		root = uint32(r.Intn(s.g.NumNodes()))
	}
	seen := make([]bool, s.g.NumNodes())
	// visit marks u and reports whether it was unvisited.
	visit := func(u uint32) bool {
		if seen[u] {
			return false
		}
		seen[u] = true
		return true
	}
	start := len(buf)
	seen[root] = true
	buf = append(buf, root)
	if p.model == diffusion.IC {
		for head := start; head < len(buf); head++ {
			x := buf[head]
			if p.class[x] != classUniform {
				for _, e := range p.gen[p.genOff[x]:p.genOff[x+1]] {
					if r.Bernoulli64(e.thr) {
						if u := e.nbr; visit(u) {
							buf = append(buf, u)
						}
					}
				}
				continue
			}
			adj := p.inAdj[p.inIdx[x]:p.inIdx[x+1]]
			if len(adj) == 0 {
				continue
			}
			lnq := p.lnq[x]
			for i := r.Geometric(lnq); i < int64(len(adj)); i += 1 + r.Geometric(lnq) {
				if u := adj[i]; visit(u) {
					buf = append(buf, u)
				}
			}
		}
		return buf
	}
	x := root
	for {
		lo := p.inIdx[x]
		nslots := uint64(p.inIdx[x+1]-lo) + 1
		tab := p.lt[p.ltOff[x] : p.ltOff[x]+int64(nslots)]
		j, frac := bits.Mul64(r.Uint64(), nslots)
		if frac >= tab[j].thr() {
			j = uint64(tab[j].alt)
		}
		if j == nslots-1 {
			break
		}
		u := p.inAdj[lo+int64(j)]
		if !visit(u) {
			break
		}
		buf = append(buf, u)
		x = u
	}
	return buf
}

type refStore struct {
	s     *Sampler
	seed  uint64
	st    *State
	sets  [][]uint32
	post  [][]int32 // post[v] = ascending ids of the sets containing v
	items int64
}

// NewRefStore returns the empty definition-level reference stream for
// (s, seed). Exported so the external differential harness (package
// ris_test) can use it.
func NewRefStore(s *Sampler, seed uint64) Store {
	return &refStore{s: s, seed: seed, st: s.NewState(), post: make([][]int32, s.g.NumNodes())}
}

// refStream is NewRefStore grown to count sets.
func refStream(s *Sampler, seed uint64, count int) Store {
	r := NewRefStore(s, seed)
	r.GenerateTo(count)
	return r
}

func (r *refStore) Sampler() *Sampler  { return r.s }
func (r *refStore) Len() int           { return len(r.sets) }
func (r *refStore) Items() int64       { return r.items }
func (r *refStore) Bytes() int64       { return 0 }
func (r *refStore) NumNodes() int      { return r.s.g.NumNodes() }
func (r *refStore) Scale() float64     { return r.s.scale }
func (r *refStore) Set(i int) []uint32 { return r.sets[i] }

func (r *refStore) ForEachSet(from, to int, fn func(i int, set []uint32)) {
	for i := max(from, 0); i < min(to, len(r.sets)); i++ {
		fn(i, r.sets[i])
	}
}

func (r *refStore) GenerateTo(target int) {
	for i := len(r.sets); i < target; i++ {
		set := r.s.Sample(rng.NewStream(r.seed, uint64(i)), r.st)
		r.sets = append(r.sets, set)
		for _, v := range set {
			r.post[v] = append(r.post[v], int32(i))
		}
		r.items += int64(len(set))
	}
}

func (r *refStore) GenerateToCtx(ctx context.Context, target int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.GenerateTo(target)
	return nil
}

func (r *refStore) PostingsRange(v uint32, from, upto int) Postings {
	ids := r.post[v]
	lo := sort.Search(len(ids), func(i int) bool { return int(ids[i]) >= from })
	hi := sort.Search(len(ids), func(i int) bool { return int(ids[i]) >= upto })
	if lo >= hi {
		return Postings{}
	}
	return Postings{pre: [][]int32{ids[lo:hi]}}
}

func (r *refStore) CoverageRangeSeeds(seeds []uint32, from, to int) int64 {
	mark := make([]bool, r.NumNodes())
	for _, v := range seeds {
		mark[v] = true
	}
	return scanCoverage(r, mark, from, to)
}

func (r *refStore) SpillTo(int64) error    { return nil }
func (r *refStore) SpillStats() SpillStats { return SpillStats{} }

var errRefStore = errors.New("ris: the reference store has no durable form")

func (r *refStore) Persist(string) (SnapshotInfo, error) { return SnapshotInfo{}, errRefStore }
func (r *refStore) PersistFS(string, SnapshotFS) (SnapshotInfo, error) {
	return SnapshotInfo{}, errRefStore
}

// scanCoverage counts the sets in [from, to) containing a marked node: the
// naive O(items in the window) form of Cov_R(S) (Eq. (1) restricted to a
// window) that CoverageRangeSeeds is checked against.
func scanCoverage(st Store, seedMark []bool, from, to int) int64 {
	var cov int64
	st.ForEachSet(from, to, func(_ int, set []uint32) {
		for _, v := range set {
			if seedMark[v] {
				cov++
				break
			}
		}
	})
	return cov
}

// scanIndex returns the ascending ids < upto of the sets containing v, found
// by scanning the sets themselves — the oracle for PostingsRange.
func scanIndex(st Store, v uint32, upto int) []int32 {
	var out []int32
	st.ForEachSet(0, upto, func(i int, set []uint32) {
		if slices.Contains(set, v) {
			out = append(out, int32(i))
		}
	})
	return out
}

// gatherPostings collects the ids in [from, upto) of sets containing v from
// the store's postings iterator, sorted, verifying that every run is
// non-empty and strictly ascending and that each id appears exactly once
// across runs.
func gatherPostings(st Store, v uint32, from, upto int) []int32 {
	var out []int32
	it := st.PostingsRange(v, from, upto)
	for {
		run, ok := it.Next()
		if !ok {
			break
		}
		if len(run) == 0 {
			panic("postings iterator yielded an empty run")
		}
		prev := int32(-1)
		for _, id := range run {
			if id <= prev {
				panic("postings run not strictly ascending")
			}
			prev = id
		}
		out = append(out, run...)
	}
	slices.Sort(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			panic("duplicate id across postings runs")
		}
	}
	return out
}

// assertStoresEqual checks the observable Store surface of got against ref
// (the definition-level reference stream, or a never-spilled / never-crashed
// twin where a test needs one): lengths, aggregates, every Set (through both
// Set and ForEachSet), per-node postings (as id sets — runs from different
// shards interleave), and both coverage paths over a few windows.
func AssertStoresEqual(t *testing.T, ctx string, ref, got Store) {
	t.Helper()
	if got.Len() != ref.Len() || got.Items() != ref.Items() {
		t.Fatalf("%s: aggregates differ: len %d/%d items %d/%d", ctx,
			got.Len(), ref.Len(), got.Items(), ref.Items())
	}
	for i := 0; i < ref.Len(); i++ {
		if !slices.Equal(ref.Set(i), got.Set(i)) {
			t.Fatalf("%s: set %d differs", ctx, i)
		}
	}
	next := 0
	got.ForEachSet(0, got.Len(), func(i int, set []uint32) {
		if i != next || !slices.Equal(ref.Set(i), set) {
			t.Fatalf("%s: ForEachSet yielded id %d (want %d) or a differing set", ctx, i, next)
		}
		next++
	})
	if next != ref.Len() {
		t.Fatalf("%s: ForEachSet visited %d of %d sets", ctx, next, ref.Len())
	}
	n := ref.NumNodes()
	for v := uint32(0); int(v) < n; v++ {
		want, have := gatherPostings(ref, v, 0, ref.Len()), gatherPostings(got, v, 0, got.Len())
		if !slices.Equal(want, have) {
			t.Fatalf("%s: node %d postings differ: %v vs %v", ctx, v, have, want)
		}
	}
	// Coverage parity on the index-driven path and on the store's own arena
	// scan, over whole-stream and half-window ranges.
	mark := make([]bool, n)
	var seeds []uint32
	for v := 0; v < n; v += 3 {
		mark[v] = true
		seeds = append(seeds, uint32(v))
	}
	half := ref.Len() / 2
	for _, w := range [][2]int{{0, ref.Len()}, {half, ref.Len()}, {half / 2, half}, {1, ref.Len() - 1}} {
		want := scanCoverage(ref, mark, w[0], w[1])
		if c := scanCoverage(got, mark, w[0], w[1]); c != want {
			t.Fatalf("%s: arena-scan coverage [%d,%d) %d vs %d", ctx, w[0], w[1], c, want)
		}
		if c := got.CoverageRangeSeeds(seeds, w[0], w[1]); c != want {
			t.Fatalf("%s: CoverageRangeSeeds[%d,%d) %d vs %d", ctx, w[0], w[1], c, want)
		}
	}
}
