package ris

import "stopandstare/internal/rng"

// SeedVerifyStream re-seeds r in place to the verification stream of id:
// a PRNG stream disjoint from the Generate stream rng.NewStream(seed, id)
// for any realistic id (< 2^62). SSA's Estimate-Inf must use samples that
// are independent of the coverage collection (Alg. 1 line 10 generates a
// fresh collection R′), which this separation guarantees. Re-seeding in
// place spares the loop that draws one verification RR set per iteration
// a Source allocation per sample.
func SeedVerifyStream(r *rng.Source, seed, id uint64) {
	r.SeedStream(seed, id|verifyStream)
}

// verifyStream is the bit that moves an id into the verification stream.
const verifyStream = 1 << 62
