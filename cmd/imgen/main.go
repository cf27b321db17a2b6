// Command imgen generates synthetic influence graphs: either stand-ins for
// the paper's Table 2 datasets (-preset) or raw generator output
// (-generator er|ba|powerlaw|ws). Output is the mmap-able .sasg graph
// format (default) or, with -text, a text edge list (gzip-compressed when
// the path ends in .gz).
//
// Examples:
//
//	imgen -preset nethept -scale 1.0 -out nethept.sasg
//	imgen -generator powerlaw -n 100000 -m 1000000 -gamma 2.1 -out pl.sasg
//	imgen -preset enron -text -out enron.txt.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

func main() {
	var (
		preset    = flag.String("preset", "", "dataset preset: "+strings.Join(gen.PresetNames(), ", "))
		generator = flag.String("generator", "", "raw generator: er, ba, powerlaw, ws")
		n         = flag.Int("n", 10000, "nodes (raw generators)")
		m         = flag.Int64("m", 50000, "edges (er/powerlaw)")
		gamma     = flag.Float64("gamma", 2.1, "power-law exponent (powerlaw)")
		attach    = flag.Int("attach", 3, "attachments per node (ba)")
		wsK       = flag.Int("ws-k", 3, "ring neighbours per side (ws)")
		wsBeta    = flag.Float64("ws-beta", 0.1, "rewiring probability (ws)")
		scale     = flag.Float64("scale", 1.0, "preset scale in (0,1]")
		seed      = flag.Uint64("seed", 1, "generator seed")
		model     = flag.String("weights", "wc", "edge weights: wc, uniform, trivalency")
		uniformP  = flag.Float64("p", 0.1, "probability for -weights uniform")
		text      = flag.Bool("text", false, "write a text edge list (.gz path: compressed) instead of .sasg")
		out       = flag.String("out", "", "output path (required)")
	)
	flag.Parse()
	if *out == "" {
		fail("missing -out")
	}
	opt := graph.BuildOptions{UniformP: *uniformP, TrivalencySeed: *seed}
	switch *model {
	case "wc":
		opt.Model = graph.WeightedCascade
	case "uniform":
		opt.Model = graph.Uniform
	case "trivalency":
		opt.Model = graph.Trivalency
	default:
		fail("unknown -weights %q", *model)
	}

	var g *graph.Graph
	var err error
	switch {
	case *preset != "":
		var p gen.Preset
		p, err = gen.PresetByName(*preset)
		if err == nil {
			g, err = p.Generate(*scale, *seed, opt)
		}
	case *generator != "":
		switch *generator {
		case "er":
			g, err = gen.ErdosRenyi(*n, *m, *seed, opt)
		case "ba":
			g, err = gen.BarabasiAlbert(*n, *attach, *seed, opt)
		case "powerlaw":
			g, err = gen.ChungLu(*n, *m, *gamma, *seed, opt)
		case "ws":
			g, err = gen.WattsStrogatz(*n, *wsK, *wsBeta, *seed, opt)
		default:
			fail("unknown -generator %q", *generator)
		}
	default:
		fail("need -preset or -generator")
	}
	if err != nil {
		fail("generate: %v", err)
	}

	write := g.WriteMappedFile
	if *text {
		write = g.SaveEdgeListFile
	}
	if err := write(*out); err != nil {
		fail("write: %v", err)
	}
	s, err := g.Stats()
	if err != nil {
		fail("stats: %v", err)
	}
	fmt.Printf("wrote %s: n=%d m=%d avg-deg=%.2f max-out=%d lt-valid=%v\n",
		*out, s.Nodes, s.Edges, s.AvgOutDegree, s.MaxOutDegree, s.LTValid)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "imgen: "+format+"\n", args...)
	os.Exit(1)
}
