package ris

import (
	"math/bits"
	"slices"

	"stopandstare/internal/epoch"
)

// This file implements index-driven coverage counting: Cov_R(S) over an id
// window computed as a union walk of the seeds' postings runs, so the cost
// is O(Σ seed postings in the window) instead of O(items in the window).
// This is what makes D-SSA's per-checkpoint verification (Alg. 4 lines
// 9–15) proportional to touched postings rather than stream length: the
// holdout half R^c_t is never rescanned — only the index runs of the k
// candidate seeds are visited, each id counted once via an epoch-stamped
// mark (the same trick maxcover's solvers use for covered sets, so a
// checkpoint costs no per-call allocation in steady state). Each id is
// counted on first visit, so the per-shard interleaving of a multi-shard
// store's runs cannot change the count.

// coverageRangeSeeds is the union walk behind CoverageRangeSeeds: count the
// distinct ids in [from, to) across the seeds' postings, deduplicated
// through the epoch-stamped marks m.
func coverageRangeSeeds(st Store, m *epoch.Marks, seeds []uint32, from, to int) int64 {
	if from < 0 {
		from = 0
	}
	if to > st.Len() {
		to = st.Len()
	}
	if from >= to || len(seeds) == 0 {
		return 0
	}
	m.Reset(to)
	var cov int64
	for _, v := range seeds {
		it := st.PostingsRange(v, from, to)
		for {
			run, ok := it.Next()
			if !ok {
				break
			}
			for _, id := range run {
				if m.Visit(id) {
					cov++
				}
			}
		}
	}
	return cov
}

// CoverageRangeSeedsMarks is CoverageRangeSeeds with caller-owned scratch:
// the union walk dedupes ids through m instead of the store-owned mark set.
// This is the concurrency-safe form the serving layer uses — any number of
// read-only queries may walk one store in parallel as long as each brings
// its own marks (and no growth runs concurrently). A remote-sharded store
// counts worker-side instead (per-shard marks, serialized per connection),
// which needs no caller scratch and stays safe for concurrent readers.
func CoverageRangeSeedsMarks(st Store, m *epoch.Marks, seeds []uint32, from, to int) int64 {
	if sc, ok := st.(*ShardedCollection); ok && sc.remotes != nil {
		return sc.remoteCoverageSeeds(seeds, from, to)
	}
	return coverageRangeSeeds(st, m, seeds, from, to)
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
	from = max(from, 0)
	to = min(to, st.Len())
	if from >= to {
		return to, 0
	}
	nw := (to - from + 63) >> 6
	b := slices.Grow((*words)[:0], nw)[:nw]
	clear(b)
	*words = b
	for _, v := range seeds {
		it := st.PostingsRange(v, from, to)
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
