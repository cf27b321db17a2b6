// Command imtvm runs the targeted viral marketing pipeline (§7.3 of the
// paper): synthesise (or load) topic weights over a graph, then solve TVM
// with D-SSA/SSA/KB-TIM — optionally under a seeding budget with per-node
// costs (the cost-aware extension).
//
//	imtvm -graph twitter.sasg -algo dssa -k 100
//	imtvm -graph twitter.sasg -algo dssa -budget 250 -cost-exponent 0.5
//	imtvm -graph twitter.sasg -budgets 50,100,200,400
//	imtvm -graph twitter.sasg -weights weights.txt -algo tim+ -k 100
//
// -budgets sweeps several spending caps over one shared sample collection
// (one RR stream scan for the whole sweep instead of one per budget);
// -budget B is the same as -budgets B. Each budget prints one "cost-aware:"
// line, followed by its -eval score and seeds.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"stopandstare"
)

func main() {
	var (
		path     = flag.String("graph", "", ".sasg graph file (required)")
		weightsF = flag.String("weights", "", "optional 'node weight' file; default synthesises topic 1")
		topicIdx = flag.Int("topic", 1, "synthetic topic number (1 or 2) when -weights is absent")
		algo     = flag.String("algo", "dssa", "dssa, ssa, or tim+ (KB-TIM)")
		k        = flag.Int("k", 50, "seed budget (cardinality mode)")
		budget   = flag.Float64("budget", 0, "if non-zero, run cost-aware mode with this budget (must be positive)")
		budgets  = flag.String("budgets", "", "comma-separated budget sweep (cost-aware, one sample collection)")
		costExp  = flag.Float64("cost-exponent", 0.5, "cost-aware: cost(v) = (1+outdeg(v))^exp")
		model    = flag.String("model", "LT", "IC or LT")
		eps      = flag.Float64("eps", 0.1, "epsilon")
		delta    = flag.Float64("delta", 0, "delta (0 = 1/n)")
		seed     = flag.Uint64("seed", 1, "random seed")
		workers  = flag.Int("workers", runtime.NumCPU(), "parallel workers")
		eval     = flag.Int("eval", 5000, "MC runs to score the result (0 to skip)")
	)
	flag.Parse()
	if *path == "" {
		fail("missing -graph")
	}
	g, err := stopandstare.OpenGraphFile(*path)
	if err != nil {
		fail("load: %v", err)
	}
	mdl, err := stopandstare.ParseModel(*model)
	if err != nil {
		fail("%v", err)
	}

	var weights []float64
	switch {
	case *weightsF != "":
		weights, err = loadWeights(*weightsF, g.NumNodes())
		if err != nil {
			fail("weights: %v", err)
		}
	default:
		topics, err := stopandstare.GenerateTopics(g, *seed+1000)
		if err != nil {
			fail("topics: %v", err)
		}
		if *topicIdx < 1 || *topicIdx > len(topics) {
			fail("topic %d out of range", *topicIdx)
		}
		tp := topics[*topicIdx-1]
		weights = tp.Weights
		fmt.Printf("synthetic topic %d (%s): %d targeted users, gamma %.0f\n",
			*topicIdx, tp.Name, tp.Users, tp.Gamma)
	}

	// Cost-aware mode: -budget is the one-entry -budgets sweep.
	var sweep []float64
	if *budgets != "" {
		for _, f := range strings.Split(*budgets, ",") {
			b, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				fail("bad -budgets entry %q: %v", f, err)
			}
			sweep = append(sweep, b)
		}
	} else if *budget != 0 {
		sweep = []float64{*budget}
	}
	if sweep != nil {
		results, err := stopandstare.MaximizeBudgetedSweep(g, mdl, weights, sweep, stopandstare.BudgetedOptions{
			Costs: degreeCosts(g, *costExp), Epsilon: *eps, Delta: *delta, Seed: *seed, Workers: *workers,
		})
		if err != nil {
			fail("cost-aware: %v", err)
		}
		for _, res := range results {
			fmt.Printf("cost-aware: %d seeds, cost %.1f of %.1f, est. benefit %.1f, %d RR sets (shared), %v\n",
				len(res.Seeds), res.Cost, res.Budget, res.BenefitEstimate, res.Samples, res.Elapsed)
			report(g, mdl, weights, res.Seeds, *eval, *seed, *workers)
		}
		return
	}

	al, err := stopandstare.ParseAlgorithm(*algo)
	if err != nil {
		fail("%v", err)
	}
	res, err := stopandstare.MaximizeTargeted(g, mdl, weights, al, stopandstare.Options{
		K: *k, Epsilon: *eps, Delta: *delta, Seed: *seed, Workers: *workers,
	})
	if err != nil {
		fail("maximize: %v", err)
	}
	fmt.Printf("%s: k=%d, est. benefit %.1f of gamma %.0f, %d RR sets, %v\n",
		al, *k, res.BenefitEstimate, res.Gamma, res.Samples, res.Elapsed)
	report(g, mdl, weights, res.Seeds, *eval, *seed, *workers)
}

// degreeCosts builds the cost model cost(v) = (1+outdeg(v))^exp.
func degreeCosts(g *stopandstare.Graph, exp float64) []float64 {
	costs := make([]float64, g.NumNodes())
	for v := range costs {
		costs[v] = math.Pow(1+float64(g.OutDegree(uint32(v))), exp)
	}
	return costs
}

func report(g *stopandstare.Graph, mdl stopandstare.Model, weights []float64, seeds []uint32, eval int, seed uint64, workers int) {
	if eval > 0 {
		b, se, err := stopandstare.EvaluateBenefit(g, mdl, weights, seeds, eval, seed+2, workers)
		if err != nil {
			fail("eval: %v", err)
		}
		fmt.Printf("benefit (MC, %d runs): %.1f ± %.1f\n", eval, b, se)
	}
	fmt.Printf("seeds: ")
	for i, s := range seeds {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Print(s)
	}
	fmt.Println()
}

func loadWeights(path string, n int) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	weights := make([]float64, n)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: want 'node weight'", line)
		}
		v, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		if int(v) >= n {
			return nil, fmt.Errorf("line %d: node %d out of range (n=%d)", line, v, n)
		}
		w, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		weights[v] = w
	}
	return weights, sc.Err()
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "imtvm: "+format+"\n", args...)
	os.Exit(1)
}
