package ris_test

import (
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
)

// TestGrowthNeverCopiesStoredSets pins the arena's growth rule: each growth
// adds exactly one extent to every segment it grows, so its sets land in one
// new slice and every set stored before it keeps its memory (the same
// &set[0]) — a growth never copies, and never holds twice, what the store
// already has. The rule is checked on an in-process store, on a
// remote-mirror store over the pipe cluster and on a store recovered from a
// snapshot. The in-process index still merges across the extents: the
// doubling ladder leaves one CSR block, not one n+1 starts table per growth.
// parentBytes is Bytes() for the same ladder when every growth re-grew one
// arena slice (go1.24, amd64); the extent layout must not exceed it.
func TestGrowthNeverCopiesStoredSets(t *testing.T) {
	const parentBytes = 13169200
	g, err := gen.ErdosRenyi(2000, 12000, 53, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ris.NewSampler(g, diffusion.IC)
	if err != nil {
		t.Fatal(err)
	}
	ref := ris.NewRefStore(s, 11)
	ref.GenerateTo(64000)

	st := ris.NewStore(s, 11, ris.StoreOptions{Workers: 2})
	growLadder(t, "in-process", ref, st, 1000)
	if blocks := ris.ArenaShapes(st)[0].Blocks; blocks != 1 {
		t.Fatalf("the doubling ladder left %d index blocks, want 1", blocks)
	}
	if b := st.Bytes(); b > parentBytes {
		t.Fatalf("Bytes() = %d, want ≤ %d", b, parentBytes)
	}

	cl := newRemoteCluster(g, "w0", "w1")
	remote := ris.NewStore(s, 11, ris.StoreOptions{RemoteWorkers: []string{"w0", "w1"}, RemoteDial: cl.dial})
	growLadder(t, "remote", ref, remote, 1000)

	dir := t.TempDir()
	src := ris.NewStore(s, 11, ris.StoreOptions{Workers: 2})
	src.GenerateTo(1000)
	src.GenerateTo(2000)
	if _, err := src.Persist(dir); err != nil {
		t.Fatal(err)
	}
	rec, _, err := ris.Recover(s, 11, ris.StoreOptions{Workers: 2}, dir)
	if err != nil {
		t.Fatal(err)
	}
	growLadder(t, "recovered", ref, rec, 4000)
}

// growLadder doubles st from first to ref.Len() sets. After each growth it
// checks that every segment gained exactly one extent and that every
// earlier set kept its &set[0]; at the end, that st equals ref.
func growLadder(t *testing.T, name string, ref, st ris.Store, first int) {
	t.Helper()
	var sets []*uint32
	for target := first; target <= ref.Len(); target *= 2 {
		before := ris.ArenaShapes(st)
		st.GenerateTo(target)
		for i, sh := range ris.ArenaShapes(st) {
			if sh.Extents != before[i].Extents+1 {
				t.Fatalf("%s: growth to %d left segment %d with %d extents, want %d", name, target, i, sh.Extents, before[i].Extents+1)
			}
		}
		for i, p := range sets {
			if set := st.Set(i); &set[0] != p {
				t.Fatalf("%s: growth to %d moved set %d", name, target, i)
			}
		}
		for i := len(sets); i < st.Len(); i++ {
			sets = append(sets, &st.Set(i)[0])
		}
	}
	ris.AssertStoresEqual(t, name, ref, st)
}
