package serving

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"stopandstare"
)

// TestSpillBeforeEvict pins the budget-enforcement ordering: when tenants
// have a spill tier, byte pressure is relieved by tiering cold store
// blocks to disk — keeping every session resident and warm — and eviction
// only happens when spilling cannot fit the budget. The budget is derived
// from twin solo sessions' post-spill floors, so spilling alone is
// provably sufficient and any eviction is a bug. Tenant b serves D-SSA,
// then SSA, whose verification store the budget and the spills cover too.
func TestSpillBeforeEvict(t *testing.T) {
	for _, algo := range []stopandstare.Algorithm{stopandstare.DSSA, stopandstare.SSA} {
		t.Run(string(algo), func(t *testing.T) { testSpillBeforeEvict(t, algo) })
	}
}

func testSpillBeforeEvict(t *testing.T, algoB stopandstare.Algorithm) {
	gA, gB := testGraph(t, 7), testGraph(t, 8)
	// A huge per-session budget arms the spill tier without ever
	// triggering it on the session's own account; only the manager's
	// spill-to-floor requests move bytes.
	const selfBudget = int64(1) << 40
	optA := stopandstare.SessionOptions{Seed: 11, Workers: 2, SpillBudgetBytes: selfBudget, SpillDir: t.TempDir()}
	optB := stopandstare.SessionOptions{Seed: 12, Workers: 2, SpillBudgetBytes: selfBudget, SpillDir: t.TempDir()}
	qA := stopandstare.Query{K: 8, Epsilon: 0.3}
	qB := stopandstare.Query{Algorithm: algoB, K: 5, Epsilon: 0.3}

	// Twin solo sessions establish each store's full and post-spill
	// resident footprints — and the reference answers.
	twinA, err := stopandstare.NewSession(gA, stopandstare.IC, optA)
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := twinA.Maximize(qA)
	if err != nil {
		t.Fatal(err)
	}
	fullA := twinA.Stats().StoreBytes
	if _, err := twinA.SpillTo(0); err != nil {
		t.Fatal(err)
	}
	floorA := twinA.Stats().StoreBytes
	if floorA >= fullA {
		t.Skipf("spilling does not reduce resident bytes on this platform (%d -> %d)", fullA, floorA)
	}
	twinB, err := stopandstare.NewSession(gB, stopandstare.IC, optB)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := twinB.Maximize(qB)
	if err != nil {
		t.Fatal(err)
	}
	if st := twinB.Stats(); (algoB == stopandstare.SSA) != (st.VerifyBytes > 0) {
		t.Fatalf("%s query left %d verification bytes", algoB, st.VerifyBytes)
	}
	if _, err := twinB.SpillTo(0); err != nil {
		t.Fatal(err)
	}
	floorB := twinB.Stats().StoreBytes

	// Both floors fit; both full stores don't. Spilling alone always
	// satisfies this budget, so eviction would be an ordering bug.
	budget := floorA + floorB + 4096
	m := NewManager(Config{BudgetBytes: budget})
	defer m.Close()
	if err := m.AddTenant("a", TenantConfig{Graph: gA, Model: stopandstare.IC, Session: optA}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTenant("b", TenantConfig{Graph: gB, Model: stopandstare.IC, Session: optB}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	gotA, err := m.Maximize(ctx, "a", qA)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "tenant a", gotA, wantA)
	gotB, err := m.Maximize(ctx, "b", qB)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "tenant b", gotB, wantB)

	st := m.Stats()
	if st.Evictions != 0 {
		t.Fatalf("evicted %d sessions although spilling fits the budget: %+v", st.Evictions, st)
	}
	if st.Spills == 0 {
		t.Fatalf("no spill passes under byte pressure: %+v", st)
	}
	if st.StoreBytes > budget {
		t.Fatalf("resident %d still over budget %d after enforcement", st.StoreBytes, budget)
	}
	if st.StoreSpilledBytes <= 0 || st.SpillFileBytes <= 0 {
		t.Fatalf("stats do not show the spilled tier: %+v", st)
	}
	for _, ten := range st.Tenants {
		if !ten.Resident {
			t.Fatalf("tenant %s lost residency; spilling must keep sessions warm: %+v", ten.Name, ten)
		}
	}

	// Warm re-queries fault spilled blocks back in and stay bit-identical;
	// the answers never saw the tiering.
	againA, err := m.Maximize(ctx, "a", qA)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "tenant a after spill", againA, wantA)
	againB, err := m.Maximize(ctx, "b", qB)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "tenant b after spill", againB, wantB)
	if st := m.Stats(); st.Evictions != 0 {
		t.Fatalf("re-queries caused evictions: %+v", st)
	}
}

// TestBudgetSpillHoldsNoManagerLock holds a budget pass inside tenant a's
// spill and checks that a query on tenant b and a Stats call both return
// meanwhile: the spill's disk I/O must not hold the manager lock every
// query's tenant lookup takes, nor make b's answer wait for a's pass. Once
// released, both answers equal cold twins' and the spill is counted.
func TestBudgetSpillHoldsNoManagerLock(t *testing.T) {
	gA, gB := testGraph(t, 7), testGraph(t, 8)
	const selfBudget = int64(1) << 40
	optA := stopandstare.SessionOptions{Seed: 11, Workers: 2, SpillBudgetBytes: selfBudget, SpillDir: t.TempDir()}
	optB := stopandstare.SessionOptions{Seed: 12, Workers: 2, SpillBudgetBytes: selfBudget, SpillDir: t.TempDir()}
	q := stopandstare.Query{K: 5, Epsilon: 0.3}

	// A one-byte budget: every query's pass spills.
	m := NewManager(Config{BudgetBytes: 1})
	defer m.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	m.spillHook = func(name string) {
		if name == "a" && !held.Swap(true) {
			close(entered)
			<-release
		}
	}
	if err := m.AddTenant("a", TenantConfig{Graph: gA, Model: stopandstare.IC, Session: optA}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTenant("b", TenantConfig{Graph: gB, Model: stopandstare.IC, Session: optB}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	type answer struct {
		res *stopandstare.Result
		err error
	}
	aDone := make(chan answer, 1)
	go func() {
		res, err := m.Maximize(ctx, "a", q)
		aDone <- answer{res, err}
	}()
	<-entered

	bDone := make(chan answer, 1)
	go func() {
		res, err := m.Maximize(ctx, "b", q)
		bDone <- answer{res, err}
	}()
	statsDone := make(chan StatsResponse, 1)
	go func() { statsDone <- m.Stats() }()
	timeout := time.After(10 * time.Second)
	var gotB answer
	select {
	case gotB = <-bDone:
	case <-timeout:
		close(release)
		t.Fatal("a query on tenant b waited for tenant a's budget spill")
	}
	select {
	case <-statsDone:
	case <-timeout:
		close(release)
		t.Fatal("Stats waited for tenant a's budget spill")
	}
	close(release)
	gotA := <-aDone

	for _, c := range []struct {
		name string
		g    *stopandstare.Graph
		opt  stopandstare.SessionOptions
		got  answer
	}{{"a", gA, optA, gotA}, {"b", gB, optB, gotB}} {
		if c.got.err != nil {
			t.Fatalf("tenant %s: %v", c.name, c.got.err)
		}
		twin, err := stopandstare.NewSession(c.g, stopandstare.IC, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Maximize(q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "tenant "+c.name, c.got.res, want)
	}
	if st := m.Stats(); st.Spills == 0 {
		t.Fatalf("no spill counted: %+v", st)
	}
}
