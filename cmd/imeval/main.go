// Command imeval scores a seed set on a graph by forward Monte-Carlo
// simulation — the evaluation step behind the paper's Figures 2–3.
//
//	imeval -graph nethept.sasg -model LT -seeds "12 99 1043" -runs 10000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"stopandstare"
)

func main() {
	var (
		path    = flag.String("graph", "", ".sasg graph file (required)")
		model   = flag.String("model", "LT", "propagation model: IC or LT")
		seedStr = flag.String("seeds", "", "whitespace-separated seed node ids (required)")
		runs    = flag.Int("runs", 10000, "Monte-Carlo simulations")
		seed    = flag.Uint64("seed", 1, "random seed")
		workers = flag.Int("workers", runtime.NumCPU(), "parallel workers")
	)
	flag.Parse()
	if *path == "" || *seedStr == "" {
		fmt.Fprintln(os.Stderr, "imeval: need -graph and -seeds")
		os.Exit(1)
	}
	g, err := stopandstare.OpenGraphFile(*path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imeval: load: %v\n", err)
		os.Exit(1)
	}
	mdl, err := stopandstare.ParseModel(*model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imeval: %v\n", err)
		os.Exit(1)
	}
	var seeds []uint32
	for _, f := range strings.Fields(*seedStr) {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imeval: bad seed id %q: %v\n", f, err)
			os.Exit(1)
		}
		seeds = append(seeds, uint32(v))
	}
	mean, se, err := stopandstare.EvaluateSpread(g, mdl, seeds, *runs, *seed, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imeval: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("spread: %.2f ± %.2f (%d runs, %s model, |S|=%d, n=%d)\n",
		mean, se, *runs, mdl, len(seeds), g.NumNodes())
}
