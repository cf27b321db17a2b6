package ris

import "stopandstare/internal/epoch"

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
