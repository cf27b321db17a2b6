// Command imstats prints Table 2-style statistics for a graph file
// (.sasg, or a text edge list, gzip-compressed or not). With -rr it also
// samples that many RR sets into a store and reports the store's
// accounting, including the resident/spilled byte split when -spill-budget
// gives the store a disk spill tier, and what a max-coverage solver holds on
// top of it (solver_bytes, as in a serving session's /stats).
//
// With -state-dir it reports the committed RR-store snapshot in a
// durability state directory (an imserve tenant subdirectory) instead of,
// or in addition to, the graph stats.
//
//	imstats -graph friendster.sasg
//	imstats -graph edges.txt.gz -format text -directed
//	imstats -graph nethept.sasg -rr 200000 -spill-budget 16MiB
//	imstats -state-dir /var/lib/imserve/state/default
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"stopandstare/internal/cliutil"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/graph"
	"stopandstare/internal/maxcover"
	"stopandstare/internal/ris"
)

func main() {
	var (
		path     = flag.String("graph", "", "graph file (required)")
		format   = flag.String("format", "binary", "binary (.sasg) or text (.gz path: compressed)")
		directed = flag.Bool("directed", true, "text edge lists: one arc per line")

		rr          = flag.Int("rr", 0, "sample this many RR sets and report store accounting (0 = graph stats only)")
		model       = flag.String("model", "IC", "propagation model for -rr: IC or LT")
		seed        = flag.Uint64("seed", 1, "RR-stream seed for -rr")
		spillBudget = flag.String("spill-budget", "", "resident RR-byte budget for -rr, e.g. 16MiB; above it cold store blocks spill to disk (empty = no spill tier)")
		spillDir    = flag.String("spill-dir", "", "directory for -rr spill files (empty = OS temp dir)")
		stateDir    = flag.String("state-dir", "", "report the committed RR-store snapshot in this directory (generation, sets, bytes)")
	)
	flag.Parse()
	if *stateDir != "" {
		if err := snapshotStats(*stateDir); err != nil {
			fmt.Fprintf(os.Stderr, "imstats: %v\n", err)
			os.Exit(1)
		}
		if *path == "" {
			return
		}
	}
	if *path == "" {
		fmt.Fprintln(os.Stderr, "imstats: missing -graph")
		os.Exit(1)
	}
	var g *graph.Graph
	var err error
	switch *format {
	case "binary":
		g, err = graph.OpenMapped(*path)
	case "text":
		g, err = graph.LoadEdgeListFile(*path, graph.LoadOptions{Directed: *directed, Relabel: true})
	default:
		err = fmt.Errorf("unknown -format %q", *format)
	}
	if err == nil {
		err = checkContent(g)
	}
	var s graph.Stats
	if err == nil {
		s, err = g.Stats()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "imstats: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("nodes:         %d\n", s.Nodes)
	fmt.Printf("edges:         %d\n", s.Edges)
	fmt.Printf("avg-degree:    %.2f\n", s.AvgOutDegree)
	fmt.Printf("max-out-deg:   %d\n", s.MaxOutDegree)
	fmt.Printf("max-in-deg:    %d\n", s.MaxInDegree)
	fmt.Printf("isolated:      %d\n", s.Isolated)
	fmt.Printf("max-in-weight: %.4f\n", s.MaxInWeight)
	fmt.Printf("lt-valid:      %v\n", s.LTValid)
	storage := "heap"
	if g.Mapped() {
		storage = "mapped"
	}
	fmt.Printf("storage:       %s\n", storage)
	fmt.Printf("memory:        %.1f MB (%.1f resident + %.1f mapped)\n",
		float64(g.Bytes())/(1<<20), float64(g.ResidentBytes())/(1<<20), float64(g.MappedBytes())/(1<<20))

	if *rr > 0 {
		if err := sampleStats(g, *rr, *model, *seed, *spillBudget, *spillDir); err != nil {
			fmt.Fprintf(os.Stderr, "imstats: %v\n", err)
			os.Exit(1)
		}
	}
}

// checkContent checks what a .sasg open does not, so a corrupt file fails
// before any figure is printed: the forward sections, and the reverse ones
// through the IC plan compile.
func checkContent(g *graph.Graph) error {
	if err := g.CheckForward(); err != nil {
		return err
	}
	s, err := ris.NewSampler(g, diffusion.IC)
	if err == nil {
		_, err = s.Plan()
	}
	return err
}

// snapshotStats prints the committed snapshot manifest of a durability
// state directory (imserve's state-dir/<tenant>/): what a recovery from it
// would start from, without opening or verifying the snapshot payload
// itself.
func snapshotStats(dir string) error {
	info, err := ris.ReadSnapshotInfo(dir)
	if err != nil {
		return err
	}
	fmt.Printf("snapshot:      %s\n", info.Path)
	fmt.Printf("generation:    %d\n", info.Generation)
	fmt.Printf("snap-sets:     %d\n", info.Sets)
	fmt.Printf("snap-bytes:    %.1f MB\n", float64(info.Bytes)/(1<<20))
	return nil
}

// sampleStats generates rr RR sets into a store (spill-tiered when
// spillBudget is set) and prints its accounting — the resident/spilled
// split the serving budget decisions are based on — and the footprint of a
// solver that has answered one query over the whole sample: its gain counts
// and one greedy run, the unit a serving session retains a bounded number of.
func sampleStats(g *graph.Graph, rr int, model string, seed uint64, spillBudget, spillDir string) error {
	mdl, err := diffusion.ParseModel(model)
	if err != nil {
		return err
	}
	budget, err := cliutil.ParseSize(spillBudget)
	if err != nil {
		return err
	}
	s, err := ris.NewSampler(g, mdl)
	if err != nil {
		return err
	}
	st := ris.NewStore(s, seed, ris.StoreOptions{
		SpillBudgetBytes: budget, SpillDir: spillDir,
	})
	if err := st.GenerateToCtx(context.Background(), rr); err != nil {
		return err
	}
	fmt.Printf("rr-sets:       %d\n", st.Len())
	fmt.Printf("rr-items:      %d\n", st.Items())
	fmt.Printf("rr-resident:   %.1f MB\n", float64(st.Bytes())/(1<<20))
	if sp := st.SpillStats(); sp.Enabled {
		fmt.Printf("rr-spilled:    %.1f MB in %d blocks (budget %.1f MB)\n",
			float64(sp.SpilledBytes)/(1<<20), sp.Blocks, float64(sp.BudgetBytes)/(1<<20))
		fmt.Printf("spill-file:    %.1f MB\n", float64(sp.FileBytes)/(1<<20))
		if sp.Err != "" {
			fmt.Printf("spill-error:   %s\n", sp.Err)
		}
	}
	sol := maxcover.NewSolver(st)
	sol.Solve(st.Len(), 1)
	_, solverBytes := sol.Retained()
	fmt.Printf("solver_bytes:  %.1f MB (gain counts + one greedy run over the sample)\n",
		float64(solverBytes)/(1<<20))
	return nil
}
