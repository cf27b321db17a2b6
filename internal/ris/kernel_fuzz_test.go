package ris

import (
	"context"
	"math"
	"slices"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// fuzzKernelGraph builds a small random graph from graphSeed whose nodes mix
// every kernel case: all-zero, all-one and shared-weight in-edge lists
// (uniform IC nodes), mixed weights with zeros and ones among them (general
// IC nodes), and for LT a per-node stop mass anywhere in [0, 1]. Weighted
// cascade nodes (w = 1/d_in, stop mass 0) share one LT alias table per
// in-degree.
func fuzzKernelGraph(t *testing.T, graphSeed uint64, size uint8, model diffusion.Model) *graph.Graph {
	t.Helper()
	r := rng.New(graphSeed)
	n := 2 + int(size)%40
	var edges []graph.Edge
	srcs := make([]int, n)
	for v := 0; v < n; v++ {
		r.Perm(srcs)
		d := r.Intn(min(n-1, 7) + 1)
		ws := make([]float64, 0, d)
		mode := r.Intn(6)
		shared := r.Float64()
		for len(ws) < d {
			var w float64
			switch mode {
			case 0:
				w = 0
			case 1:
				w = 1
			case 2:
				w = shared
			case 3:
				w = 1 / float64(d)
			default:
				switch r.Intn(4) {
				case 0:
					w = 0
				case 1:
					w = 1
				default:
					w = r.Float64()
				}
			}
			ws = append(ws, w)
		}
		if model == diffusion.LT && mode != 3 {
			// Scale the in-weights to sum to 1 − stop; stop is 0 for a third
			// of the nodes, so the walk never stops there by the deficit.
			var sum float64
			for _, w := range ws {
				sum += w
			}
			stop := 0.0
			if r.Intn(3) > 0 {
				stop = r.Float64()
			}
			for i := range ws {
				if sum > 0 {
					ws[i] = ws[i] / sum * (1 - stop) * (1 - 1e-7)
				}
			}
		}
		k := 0
		for _, u := range srcs {
			if k == len(ws) {
				break
			}
			if u == v {
				continue
			}
			edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v), W: ws[k]})
			k++
		}
	}
	g, err := graph.FromEdges(n, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzKernelAgainstSequential checks the production kernel — the chunk path
// (lane-interleaved LT walks, frontier-batched IC draws) and AppendSample —
// against seqSample, the one-walk-at-a-time kernel, set by set: same nodes
// in the same order. Every walk must leave the lanes' visited bitsets
// clear. ScanStop over the same ids must stop where seqSample's sets
// reach a random seed set's need-th hit.
func FuzzKernelAgainstSequential(f *testing.F) {
	f.Add(uint64(1), uint8(12), false, false, uint64(7), uint16(0), uint16(600), uint64(3))
	f.Add(uint64(2), uint8(30), true, false, uint64(9), uint16(5), uint16(1031), uint64(4))
	f.Add(uint64(3), uint8(39), false, true, uint64(11), uint16(3), uint16(77), uint64(5))
	f.Add(uint64(4), uint8(25), true, true, uint64(13), uint16(509), uint16(6), uint64(6))
	f.Add(uint64(5), uint8(0), true, false, uint64(15), uint16(1), uint16(1), uint64(7))
	f.Fuzz(func(t *testing.T, graphSeed uint64, size uint8, lt, weighted bool, seed uint64, lo, count uint16, stopSeed uint64) {
		model := diffusion.IC
		if lt {
			model = diffusion.LT
		}
		g := fuzzKernelGraph(t, graphSeed, size, model)
		n := g.NumNodes()
		s := mustSampler(t, g, model)
		if weighted {
			wr := rng.New(graphSeed ^ 0x5eed)
			bw := make([]float64, n)
			for v := range bw {
				if wr.Intn(3) > 0 {
					bw[v] = wr.Float64()
				}
			}
			bw[wr.Intn(n)] = 1
			var err error
			if s, err = NewWeightedSampler(g, model, bw); err != nil {
				t.Fatal(err)
			}
		}
		from, to := int(lo), int(lo)+int(count)%1200
		var r rng.Source
		var want []uint32
		var wantOff []int
		for id := from; id < to; id++ {
			r.SeedStream(seed, uint64(id))
			wantOff = append(wantOff, len(want))
			want = seqSample(s, &r, want)
		}
		wantOff = append(wantOff, len(want))

		// The chunk path, at worker counts that split the chunks differently.
		for _, workers := range []int{1, 3} {
			id := from
			for ci, res := range sampleChunks(t, s, seed, from, to, workers) {
				for j := 1; j < len(res.offsets); j++ {
					got := res.buf[res.offsets[j-1]:res.offsets[j]]
					k := id - from
					if !slices.Equal(got, want[wantOff[k]:wantOff[k+1]]) {
						t.Fatalf("workers %d chunk %d: set %d = %v, sequential %v", workers, ci, id, got, want[wantOff[k]:wantOff[k+1]])
					}
					id++
				}
			}
			if id != to {
				t.Fatalf("workers %d: chunks hold %d sets, want %d", workers, id-from, to-from)
			}
		}

		// One set at a time.
		st := s.NewState()
		var buf []uint32
		for id := from; id < to; id++ {
			k := id - from
			r.SeedStream(seed, uint64(id))
			var setLen int
			buf, setLen = s.AppendSample(&r, st, buf[:0])
			if !slices.Equal(buf, want[wantOff[k]:wantOff[k+1]]) || setLen != len(buf) {
				t.Fatalf("AppendSample set %d = %v (len %d), sequential %v",
					id, buf, setLen, want[wantOff[k]:wantOff[k+1]])
			}
			requireVisitedClear(t, "AppendSample", st)
		}

		// The scan against a random seed set: it stops at the need-th set
		// of seqSample's that meets the seeds, or counts them all.
		sr := rng.New(stopSeed)
		in := make([]bool, n)
		var seeds []uint32
		for v := range in {
			if in[v] = sr.Intn(4) == 0; in[v] {
				seeds = append(seeds, uint32(v))
			}
		}
		var hitIDs []int
		for id := from; id < to; id++ {
			k := id - from
			if slices.ContainsFunc(want[wantOff[k]:wantOff[k+1]], func(v uint32) bool { return in[v] }) {
				hitIDs = append(hitIDs, id)
			}
		}
		for _, need := range []int64{1 + int64(stopSeed%16), math.MaxInt64} {
			wantID, wantCov := to, int64(len(hitIDs))
			if need <= wantCov {
				wantID, wantCov = hitIDs[need-1], need
			}
			for _, workers := range []int{1, 3} {
				id, cov, err := ScanStop(context.Background(), s, seed, seeds, from, to, need, workers)
				if err != nil || id != wantID || cov != wantCov {
					t.Fatalf("ScanStop need %d workers %d: (%d, %d, %v), sequential (%d, %d)",
						need, workers, id, cov, err, wantID, wantCov)
				}
			}
		}
		// Every walk leaves the lanes' visited bitsets clear, the chunk
		// path's interleaved LT lanes included.
		if to > from {
			s.sampleChunk(s.mustPlan(), st, seed, from, to, &chunkResult{})
			requireVisitedClear(t, "sampleChunk", st)
		}
	})
}

// sampleChunks is sampleChunksCtx without cancellation, on a graph whose
// plan compiles.
func sampleChunks(tb testing.TB, s *Sampler, seed uint64, gfrom, gto, workers int) []chunkResult {
	tb.Helper()
	results, err := sampleChunksCtx(context.Background(), s, seed, gfrom, gto, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return results
}
