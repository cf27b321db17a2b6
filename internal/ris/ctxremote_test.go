// Remote-tier cancellation: a GenerateToCtx abandoned mid-flight while some
// workers already appended must roll back every mirror (segSnap restore) and
// leave the coordinator exactly at its pre-call state, down to each mirror's
// extent count and offset and gid tables; workers that ran
// ahead are reconciled by the idempotent redelivery path on the next growth.
package ris_test

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"stopandstare/internal/ris"
)

// remoteCountCtx cancels after a fixed number of Err() polls (see countCtx
// in ctxgen_test.go; duplicated here because this is the external package).
type remoteCountCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *remoteCountCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestGenerateCtxRemoteRollback(t *testing.T) {
	g := remoteTestGraph(t)
	s := mustRemoteSampler(t, g)
	cl := newRemoteCluster(g, "w0", "w1")
	const seed = 772
	opt := ris.StoreOptions{
		Workers:       2,
		RemoteWorkers: []string{"w0", "w1"},
		RemoteDial:    cl.dial,
	}
	st := ris.NewStore(s, seed, opt)
	ref := ris.NewRefStore(s, seed)
	st.GenerateTo(50)
	ref.GenerateTo(50)
	wantLen, wantItems, wantShapes := st.Len(), st.Items(), ris.ArenaShapes(st)

	// Pre-canceled: upfront check fires before any RPC.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if err := st.GenerateToCtx(pre, st.Len()+40); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled GenerateToCtx err = %v, want Canceled", err)
	}

	// Flip the context at increasing poll counts: depending on scheduling
	// zero, one or both shard RPCs complete before the cancellation is
	// observed, exercising the partial-success rollback. Whatever the
	// interleaving, the call either completes in full (flip observed too
	// late) or the coordinator comes back exactly unchanged.
	canceled := 0
	for _, after := range []int64{1, 2, 3, 4} {
		ctx := &remoteCountCtx{Context: context.Background(), after: after}
		err := st.GenerateToCtx(ctx, st.Len()+90)
		if err == nil {
			ref.GenerateTo(ref.Len() + 90)
			ris.AssertStoresEqual(t, "late-cancel full growth", ref, st)
			wantLen, wantItems, wantShapes = st.Len(), st.Items(), ris.ArenaShapes(st)
			continue
		}
		canceled++
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d GenerateToCtx err = %v, want Canceled", after, err)
		}
		if st.Len() != wantLen || st.Items() != wantItems {
			t.Fatalf("after=%d mirrors not rolled back: len %d→%d items %d→%d",
				after, wantLen, st.Len(), wantItems, st.Items())
		}
		if shapes := ris.ArenaShapes(st); !reflect.DeepEqual(shapes, wantShapes) {
			t.Fatalf("after=%d mirrors not rolled back: arena %+v, want %+v", after, shapes, wantShapes)
		}
	}
	if canceled == 0 {
		t.Fatal("no flip point canceled — test exercised nothing")
	}

	// Workers may now hold sets the coordinator rolled back; the next growth
	// replays/redelivers deterministically and everything converges
	// bit-identical to the uninterrupted reference stream.
	st.GenerateTo(st.Len() + 90)
	ref.GenerateTo(ref.Len() + 90)
	ris.AssertStoresEqual(t, "post-cancel regrow", ref, st)
}
