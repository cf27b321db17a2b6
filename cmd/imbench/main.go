// Command imbench regenerates the paper's evaluation artifacts (§7): every
// table and figure has a registered experiment id. Results print as aligned
// text tables with the paper's expected shape noted underneath.
//
//	imbench -exp all                # everything (long)
//	imbench -exp table3,fig8        # selected artifacts
//	imbench -exp fig4 -quick        # reduced sweep
//	imbench -list                   # show the registry
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"stopandstare/internal/bench"
)

func main() {
	var (
		exps     = flag.String("exp", "", "comma-separated experiment ids, or 'all'")
		list     = flag.Bool("list", false, "list registered experiments")
		quick    = flag.Bool("quick", false, "reduced datasets and sweeps")
		eps      = flag.Float64("eps", 0.1, "epsilon for all algorithms")
		delta    = flag.Float64("delta", 0, "delta (0 = 1/n per dataset)")
		seed     = flag.Uint64("seed", 0, "base seed (0 = default)")
		workers  = flag.Int("workers", runtime.NumCPU(), "parallel workers")
		graphF   = flag.String("graph", "", "run experiments on this .sasg graph file instead of generated presets")
		scaleMul = flag.Float64("scale", 1.0, "multiplier on default dataset scales")
		mcRuns   = flag.Int("mc", 0, "MC runs for scoring seed sets (0 = default)")
		kList    = flag.String("k", "", "override k sweep, comma-separated")
		celf     = flag.Bool("celf", false, "include CELF++ on nethept sweeps (slow)")
	)
	flag.Parse()
	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-14s %s\n", e.ID, e.Description)
		}
		return
	}
	if *exps == "" {
		fmt.Fprintln(os.Stderr, "imbench: need -exp (or -list)")
		os.Exit(1)
	}
	cfg := bench.Config{
		Epsilon: *eps, Delta: *delta, Seed: *seed, Workers: *workers,
		GraphFile: *graphF,
		ScaleMul:  *scaleMul, MCRuns: *mcRuns, Quick: *quick,
		IncludeCELF: *celf,
	}
	if *kList != "" {
		for _, f := range strings.Split(*kList, ",") {
			var k int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &k); err != nil {
				fmt.Fprintf(os.Stderr, "imbench: bad -k entry %q\n", f)
				os.Exit(1)
			}
			cfg.KValues = append(cfg.KValues, k)
		}
	}
	ids := strings.Split(*exps, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	if err := bench.RunAll(ids, cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "imbench: %v\n", err)
		os.Exit(1)
	}
}
