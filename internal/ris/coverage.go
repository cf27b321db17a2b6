package ris

import (
	"context"
	"math"
	"math/bits"
	"slices"
)

// This file implements index-driven coverage counting: Cov_R(S) over an id
// window computed as a union walk of the seeds' postings runs, so the cost
// is O(Σ seed postings in the window) plus one bit per id of the window,
// instead of O(items in the window). This is what makes D-SSA's
// per-checkpoint verification (Alg. 4 lines 9–15) proportional to touched
// postings rather than stream length: the holdout half R^c_t is never
// rescanned — only the index runs of the k candidate seeds are visited, each
// id ORed into a bitset over the window, which is then popcounted (StopIndex
// with no stop). A caller-owned, pooled bitset makes a checkpoint cost no
// allocation in steady state. A set bit is an id, whichever seed reached it
// first, so the per-shard interleaving of a multi-shard store's runs cannot
// change the count.

// CoverageRangeSeedsMarks is CoverageRangeSeeds with caller-owned scratch:
// the union walk marks ids in the bitset words instead of the store-owned
// one. This is the concurrency-safe form the serving layer uses — any number
// of read-only queries may walk one store in parallel as long as each
// brings its own words (and no growth runs concurrently). A remote-sharded
// store counts worker-side instead (per-shard bitsets, serialized per
// connection), which needs no caller scratch and stays safe for concurrent
// readers.
func CoverageRangeSeedsMarks(st Store, words *[]uint64, seeds []uint32, from, to int) int64 {
	if sc, ok := st.(*ShardedCollection); ok && sc.remotes != nil {
		return sc.remoteCoverageSeeds(seeds, from, to)
	}
	_, cov := StopIndex(st, words, seeds, from, to, math.MaxInt64)
	return cov
}

// StopIndex answers a stopping rule that tests the ids of [from, to) in
// order and fires at its need-th hit, a hit being a set that contains a
// seed. It returns the id of that hit and need, or to and the window's hit
// count when the window holds fewer than need (need ≥ 1). SSA's
// Estimate-Inf asks this of a retained verification store, in place of
// drawing and testing the sets one at a time. The seeds' postings are
// marked in a bitset over the window, words, which the caller owns and may
// pool; the cost is the window's seed postings plus one bit per id.
func StopIndex(st Store, words *[]uint64, seeds []uint32, from, to int, need int64) (id int, cov int64) {
	return windowStop(words, seeds, max(from, 0), min(to, st.Len()), need, st.PostingsRange)
}

// windowStop is StopIndex over a window [from, to) already clamped to the
// store, whose seed postings postings yields: a shard server walks its own
// segment's blocks through it.
func windowStop(words *[]uint64, seeds []uint32, from, to int, need int64, postings func(v uint32, from, upto int) Postings) (id int, cov int64) {
	if from >= to {
		return to, 0
	}
	nw := (to - from + 63) >> 6
	b := slices.Grow((*words)[:0], nw)[:nw]
	clear(b)
	*words = b
	for _, v := range seeds {
		it := postings(v, from, to)
		for {
			run, ok := it.Next()
			if !ok {
				break
			}
			for _, id := range run {
				off := int(id) - from
				b[off>>6] |= 1 << (off & 63)
			}
		}
	}
	for i, w := range b {
		c := int64(bits.OnesCount64(w))
		if cov+c < need {
			cov += c
			continue
		}
		for k := need - cov; k > 1; k-- {
			w &= w - 1 // drop the lowest hit
		}
		return from + i<<6 + bits.TrailingZeros64(w), need
	}
	return to, cov
}

// scanSlice is the number of ids ScanStop samples at once: what it holds
// of a window, however long the window is.
const scanSlice = 1 << 16

// ScanStop is StopIndex over s's own stream at seed instead of a store: the
// same answer a store built on (s, seed) would give for [from, to), with
// nothing kept. It samples the window through the chunk kernel on workers
// goroutines (≤ 0 ⇒ GOMAXPROCS), scanSlice ids at a time, and tests each
// set against the seeds in a bitset over the nodes. Every slice is sampled
// into the first slice's chunk buffers, so a scan allocates about one
// slice's sets however many ids it tests. Cancellation and the plan's
// content error are sampleChunksCtx's.
func ScanStop(ctx context.Context, s *Sampler, seed uint64, seeds []uint32, from, to int, need int64, workers int) (id int, cov int64, err error) {
	in := make([]uint64, visWords(s.g.NumNodes()))
	for _, v := range seeds {
		in[v>>6] |= 1 << (v & 63)
	}
	var chunks []chunkResult
	for lo := max(from, 0); lo < to; lo += scanSlice {
		if chunks, err = sampleChunksInto(ctx, s, seed, lo, lo+min(scanSlice, to-lo), workers, chunks); err != nil {
			return 0, 0, err
		}
		id := lo
		for _, c := range chunks {
			for j := 1; j < len(c.offsets); j, id = j+1, id+1 {
				for _, v := range c.buf[c.offsets[j-1]:c.offsets[j]] {
					if in[v>>6]&(1<<(v&63)) != 0 {
						if cov++; cov == need {
							return id, need, nil
						}
						break
					}
				}
			}
		}
	}
	return to, cov, nil
}
