// Command imrun executes one influence-maximization algorithm on a graph
// file and prints the seed set with run metrics.
//
//	imrun -graph nethept.sasg -algo dssa -k 50 -model LT -eps 0.1
//	imrun -graph pl.sasg -algo imm -k 100 -model IC -eval 10000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"stopandstare"
)

func main() {
	var (
		path    = flag.String("graph", "", ".sasg graph file (required)")
		algo    = flag.String("algo", "dssa", "algorithm: dssa, ssa, imm, tim+, tim, celf++, celf, degree, random")
		k       = flag.Int("k", 50, "seed budget")
		model   = flag.String("model", "LT", "propagation model: IC or LT")
		eps     = flag.Float64("eps", 0.1, "approximation slack epsilon")
		delta   = flag.Float64("delta", 0, "failure probability (0 = 1/n)")
		seed    = flag.Uint64("seed", 1, "random seed")
		workers = flag.Int("workers", runtime.NumCPU(), "parallel workers")
		eval    = flag.Int("eval", 0, "if > 0, score the seeds with this many MC runs")
		certify = flag.Bool("certify", false, "score the seeds with a rigorous (5%, 0.1%) RIS certificate")
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
	al, err := stopandstare.ParseAlgorithm(*algo)
	if err != nil {
		fail("%v", err)
	}
	res, err := stopandstare.Maximize(g, mdl, al, stopandstare.Options{
		K: *k, Epsilon: *eps, Delta: *delta, Seed: *seed, Workers: *workers,
	})
	if err != nil {
		fail("maximize: %v", err)
	}
	fmt.Printf("algorithm:  %s (%s model, eps=%.3g)\n", al, mdl, *eps)
	fmt.Printf("time:       %v\n", res.Elapsed)
	fmt.Printf("rr-sets:    %d\n", res.Samples)
	fmt.Printf("influence:  %.2f (algorithm estimate)\n", res.InfluenceEstimate)
	fmt.Printf("iterations: %d  hit-cap: %v\n", res.Iterations, res.HitCap)
	if *eval > 0 {
		mean, se, err := stopandstare.EvaluateSpread(g, mdl, res.Seeds, *eval, *seed+1, *workers)
		if err != nil {
			fail("eval: %v", err)
		}
		fmt.Printf("spread(MC): %.2f ± %.2f (%d runs)\n", mean, se, *eval)
	}
	if *certify {
		cert, err := stopandstare.CertifySpread(g, mdl, res.Seeds, 0.05, 0.001, *seed+2)
		if err != nil {
			fail("certify: %v", err)
		}
		fmt.Printf("certified:  %.2f within ±5%% w.p. 99.9%% (%d RR sets, %v)\n",
			cert.Influence, cert.Samples, cert.Elapsed)
	}
	fmt.Printf("seeds: ")
	for i, s := range res.Seeds {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Print(s)
	}
	fmt.Println()
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "imrun: "+format+"\n", args...)
	os.Exit(1)
}
