package ris

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/rng"
)

// TestStreamPinned pins the sample stream itself: the FNV-1a hash of every
// RR set's bytes and width w(R) = Σ_{v∈R} d_in(v) (computed here from the
// graph) for ids [0, 4096), per plan class, and of the
// HitsMarked answers for one fixed seed set over the verification ids. The
// contract "RR set i is a pure function of (seed, i)" is what every store,
// snapshot and shard relies on, so a kernel rewrite must reproduce these
// values exactly; a change here is a change of the sampling stream.
func TestStreamPinned(t *testing.T) {
	const ids = 4096
	wc, err := gen.ChungLu(3000, 18000, 2.1, 7, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := gen.ChungLu(3000, 18000, 2.1, 7, graph.BuildOptions{Model: graph.Trivalency, TrivalencySeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, wc.NumNodes())
	wr := rng.New(13)
	for v := range weights {
		weights[v] = wr.Float64()
	}
	wris := func(model diffusion.Model) *Sampler {
		s, err := NewWeightedSampler(wc, model, weights)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	marked := make([]bool, wc.NumNodes())
	for v := 0; v < 30; v++ {
		marked[v] = true
	}
	for _, tc := range []struct {
		name      string
		s         *Sampler
		sets, hit uint64
	}{
		{"IC-uniform", mustSampler(t, wc, diffusion.IC), 0x117fc58c645da6ab, 0x90c53e28e3c2fd7e},
		{"IC-general", mustSampler(t, tri, diffusion.IC), 0x493410c2a11cc9c2, 0xb05354f41faf3134},
		{"LT", mustSampler(t, wc, diffusion.LT), 0xa6c6677da92f8635, 0xc9f08786c6798886},
		{"WRIS-IC", wris(diffusion.IC), 0x94e9506599ef90d2, 0x78a7cb49ab39e768},
		{"WRIS-LT", wris(diffusion.LT), 0x0a22e5c4a176ee4d, 0xc204deeeec35b30c},
	} {
		// One set at a time through AppendSample.
		h := fnv.New64a()
		var b [8]byte
		hashSet := func(set []uint32) {
			var width int64
			for _, v := range set {
				binary.LittleEndian.PutUint32(b[:4], v)
				h.Write(b[:4])
				width += int64(tc.s.g.InDegree(v))
			}
			binary.LittleEndian.PutUint64(b[:], uint64(width))
			h.Write(b[:])
		}
		st := tc.s.NewState()
		var r rng.Source
		var buf []uint32
		for id := uint64(0); id < ids; id++ {
			r.SeedStream(55, id)
			buf, _ = tc.s.AppendSample(&r, st, buf[:0])
			hashSet(buf)
		}
		if got := h.Sum64(); got != tc.sets {
			t.Errorf("%s: AppendSample stream hash %#x, pinned %#x", tc.name, got, tc.sets)
		}
		// The same ids through the store's chunk path, at a worker count and
		// a range that leave partial chunks.
		h.Reset()
		for _, res := range sampleChunks(t, tc.s, 55, 0, ids, 3) {
			for j := 1; j < len(res.offsets); j++ {
				hashSet(res.buf[res.offsets[j-1]:res.offsets[j]])
			}
		}
		if got := h.Sum64(); got != tc.sets {
			t.Errorf("%s: chunk stream hash %#x, pinned %#x", tc.name, got, tc.sets)
		}
		// The early-exit hit test over the verification ids.
		h.Reset()
		hits := 0
		for id := uint64(0); id < ids; id++ {
			SeedVerifyStream(&r, 55, id)
			var hit bool
			hit, buf = tc.s.HitsMarked(&r, st, buf, marked)
			b[0] = 0
			if hit {
				b[0] = 1
				hits++
			}
			h.Write(b[:1])
		}
		if got := h.Sum64(); got != tc.hit {
			t.Errorf("%s: HitsMarked hash %#x (%d hits), pinned %#x", tc.name, got, hits, tc.hit)
		}
	}
}
