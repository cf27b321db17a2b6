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

// ExampleMaximize_viralMarketing is the paper's §1 scenario: a brand seeds a
// campaign with k ambassadors on a trust network and wants a provable
// answer fast. It runs the §7.2 comparison at a small scale: D-SSA against
// IMM under both models, with each seed set's reach scored by independent
// Monte-Carlo. The shape of Figs. 2-5 holds: both reach the same audience,
// and D-SSA draws several times fewer RR sets than IMM.
func ExampleMaximize_viralMarketing() {
	// An Epinions-like trust network at 3 % of its size.
	g, err := stopandstare.GeneratePreset("epinions", 0.03, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, model := range []stopandstare.Model{stopandstare.LT, stopandstare.IC} {
		var samples [2]int64
		var reach [2]float64
		for i, algo := range []stopandstare.Algorithm{stopandstare.DSSA, stopandstare.IMM} {
			res, err := stopandstare.Maximize(g, model, algo,
				stopandstare.Options{K: 20, Epsilon: 0.1, Seed: 3, Workers: 2})
			if err != nil {
				log.Fatal(err)
			}
			spread, _, err := stopandstare.EvaluateSpread(g, model, res.Seeds, 1000, 99, 2)
			if err != nil {
				log.Fatal(err)
			}
			samples[i], reach[i] = res.Samples, spread
		}
		fmt.Printf("%v: IMM/D-SSA RR sets %.0fx, D-SSA reach within 5%% of IMM's: %v\n",
			model, float64(samples[1])/float64(samples[0]), reach[0] >= 0.95*reach[1])
	}
	// Output:
	// LT: IMM/D-SSA RR sets 4x, D-SSA reach within 5% of IMM's: true
	// IC: IMM/D-SSA RR sets 4x, D-SSA reach within 5% of IMM's: true
}

// ExampleEvaluateSpread_outbreakDetection is influence maximization's dual
// use (paper §1: epidemic control). The k individuals whose infection would
// spread furthest are the ones to vaccinate first; simulated outbreaks
// seeded from them are compared with the classic baselines, degree-chosen
// and random index cases. Degree targeting is as good on this topology, and
// random index cases are far weaker, as in Leskovec et al.'s outbreak
// detection study.
func ExampleEvaluateSpread_outbreakDetection() {
	// A contact network: preferential attachment, 5 000 individuals.
	g, err := stopandstare.GenerateBarabasiAlbert(5000, 4, 13)
	if err != nil {
		log.Fatal(err)
	}
	const budget = 20 // vaccination budget
	outbreak := make(map[stopandstare.Algorithm]float64)
	for _, algo := range []stopandstare.Algorithm{stopandstare.DSSA, stopandstare.Degree, stopandstare.Random} {
		res, err := stopandstare.Maximize(g, stopandstare.IC, algo,
			stopandstare.Options{K: budget, Epsilon: 0.1, Seed: 31, Workers: 2})
		if err != nil {
			log.Fatal(err)
		}
		outbreak[algo], _, err = stopandstare.EvaluateSpread(g, stopandstare.IC, res.Seeds, 5000, 37, 2)
		if err != nil {
			log.Fatal(err)
		}
	}
	worst := outbreak[stopandstare.DSSA]
	fmt.Printf("degree-chosen index cases: %.0f%% of the D-SSA outbreak\n", 100*outbreak[stopandstare.Degree]/worst)
	fmt.Printf("random index cases:        %.0f%% of the D-SSA outbreak\n", 100*outbreak[stopandstare.Random]/worst)
	// Output:
	// degree-chosen index cases: 100% of the D-SSA outbreak
	// random index cases:        12% of the D-SSA outbreak
}
