package stopandstare_test

import (
	"fmt"
	"log"
	"slices"

	"stopandstare"
)

// The basic workflow: generate (or load) a graph, maximize influence,
// validate the result.
func Example() {
	g, err := stopandstare.GeneratePreset("nethept", 0.1, 42)
	if err != nil {
		log.Fatal(err)
	}
	res, err := stopandstare.Maximize(g, stopandstare.LT, stopandstare.DSSA,
		stopandstare.Options{K: 10, Epsilon: 0.1, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(res.Seeds) == 10)
	// Output: true
}

// ExampleSession shows the serving workflow: one long-lived Session per
// (graph, model) answers a stream of queries, reusing every RR sample
// generated so far — a repeated or refined query pays selection, not
// sampling, and returns exactly what a cold Maximize at the same seed
// would.
func ExampleSession() {
	g, err := stopandstare.GeneratePowerLaw(2000, 10000, 2.1, 1)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := stopandstare.NewSession(g, stopandstare.IC,
		stopandstare.SessionOptions{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	cold, err := sess.Maximize(stopandstare.Query{K: 10, Epsilon: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	// The repeated query is warm: zero sampling, identical result.
	warm, err := sess.Maximize(stopandstare.Query{K: 10, Epsilon: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	// A refined query (larger k, SSA instead of D-SSA) shares the stream.
	refined, err := sess.Maximize(stopandstare.Query{
		Algorithm: stopandstare.SSA, K: 25, Epsilon: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	st := sess.Stats()
	fmt.Println(slices.Equal(warm.Seeds, cold.Seeds), warm.Samples == cold.Samples)
	fmt.Println(cold.Warm, warm.Warm)
	fmt.Println(len(refined.Seeds), st.Queries, st.Solvers, st.PlanBytes > 0)
	// Output:
	// true true
	// false true
	// 25 3 4 true
}

// ExampleMaximize_baselineComparison runs the same instance through the
// paper's comparison set.
func ExampleMaximize_baselineComparison() {
	g, err := stopandstare.GeneratePowerLaw(2000, 10000, 2.1, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, algo := range []stopandstare.Algorithm{
		stopandstare.DSSA, stopandstare.SSA, stopandstare.IMM,
	} {
		res, err := stopandstare.Maximize(g, stopandstare.IC, algo,
			stopandstare.Options{K: 20, Epsilon: 0.2, Seed: 3, Workers: 2})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(algo, len(res.Seeds))
	}
	// Output:
	// dssa 20
	// ssa 20
	// imm 20
}

// ExampleMaximizeTargeted shows the TVM variant with explicit weights.
func ExampleMaximizeTargeted() {
	g, err := stopandstare.GeneratePowerLaw(1000, 5000, 2.1, 5)
	if err != nil {
		log.Fatal(err)
	}
	weights := make([]float64, g.NumNodes())
	for v := 0; v < 100; v++ { // the first 100 users are the target group
		weights[v] = 1
	}
	res, err := stopandstare.MaximizeTargeted(g, stopandstare.LT, weights,
		stopandstare.DSSA, stopandstare.Options{K: 5, Epsilon: 0.2, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(res.Seeds), res.Gamma)
	// Output: 5 100
}

// ExampleCertifySpread scores a seed set with a rigorous error bound.
func ExampleCertifySpread() {
	g, err := stopandstare.GeneratePowerLaw(1000, 5000, 2.1, 11)
	if err != nil {
		log.Fatal(err)
	}
	cert, err := stopandstare.CertifySpread(g, stopandstare.IC,
		[]uint32{1, 2, 3}, 0.1, 0.01, 13)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cert.Influence > 3, cert.Epsilon)
	// Output: true 0.1
}
