// Cooperative cancellation of store growth: a canceled GenerateToCtx must
// mutate NOTHING — stream, index and width exactly as before the call — so a
// later identical top-up regenerates the same bit-identical sets. Tested
// deterministically with a context whose Err() flips after a fixed number of
// checks, which cancels mid-flight without sleeps or races on wall time.
package ris

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// countCtx is a context.Context whose Err() starts returning
// context.Canceled after the first `after` calls. Embedding Background
// supplies Deadline/Done/Value; the generate paths poll Err() between chunk
// claims, which is exactly the hook this exploits.
type countCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestGenerateCtxCancellation(t *testing.T) {
	s := snapTestSampler(t)
	const seed = 771
	// Shards 0 and 1 are the same one-shard store; both stay in the grid so
	// the default configuration is named explicitly.
	for _, shards := range []int{0, 1, 3} {
		st := NewStore(s, seed, snapOpt(shards))
		ref := NewRefStore(s, seed)
		st.GenerateTo(40)
		ref.GenerateTo(40)
		wantLen, wantItems := st.Len(), st.Items()

		// Pre-canceled context: immediate error, nothing mutated.
		pre, cancel := context.WithCancel(context.Background())
		cancel()
		if err := st.GenerateToCtx(pre, st.Len()+50); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d pre-canceled GenerateToCtx err = %v, want Canceled", shards, err)
		}

		// Mid-flight cancellation at several flip points: workers poll
		// ctx.Err() between chunk claims, so the call either completes in
		// full (cancellation observed too late) or mutates nothing — never
		// a partial append. after=1 flips before the final post-sampling
		// check, so at least that case must cancel.
		canceled := 0
		for _, after := range []int64{1, 2, 5, 9} {
			ctx := &countCtx{Context: context.Background(), after: after}
			err := st.GenerateToCtx(ctx, st.Len()+120)
			if err == nil {
				ref.GenerateTo(ref.Len() + 120)
				AssertStoresEqual(t, "late-cancel full growth", ref, st)
				wantLen, wantItems = st.Len(), st.Items()
				continue
			}
			canceled++
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("shards=%d after=%d GenerateToCtx err = %v, want Canceled", shards, after, err)
			}
			l, it := st.Len(), st.Items()
			if l != wantLen || it != wantItems {
				t.Fatalf("shards=%d after=%d store mutated by canceled growth: len %d→%d items %d→%d",
					shards, after, wantLen, l, wantItems, it)
			}
		}
		if canceled == 0 {
			t.Fatalf("shards=%d no flip point canceled — test exercised nothing", shards)
		}

		// At or below Len the call is a no-op even on a canceled context.
		if err := st.GenerateToCtx(pre, st.Len()); err != nil {
			t.Fatalf("shards=%d GenerateToCtx at target: %v", shards, err)
		}

		// The abandoned growth left no trace: the same top-up, uncanceled,
		// lands bit-identical to the never-interrupted reference stream.
		st.GenerateTo(st.Len() + 120)
		ref.GenerateTo(ref.Len() + 120)
		AssertStoresEqual(t, "post-cancel regrow", ref, st)

		// An uncanceled context goes through the same path and grows.
		if err := st.GenerateToCtx(context.Background(), st.Len()+7); err != nil {
			t.Fatalf("shards=%d GenerateToCtx grow: %v", shards, err)
		}
		ref.GenerateTo(ref.Len() + 7)
		AssertStoresEqual(t, "ctx regrow", ref, st)
	}
}
