// Command imload runs the multi-tenant serving load bench: imserve's
// stack (serving.Manager behind serving.Server) driven by concurrent
// HTTP clients over uniform, Zipf, coalescing, and overload mixes, with
// client-observed p50/p99 latency and queries/sec written as JSON.
//
//	go run ./cmd/imload                              # full measurement
//	go run ./cmd/imload -smoke -out load-report.json # CI scale
package main

import (
	"flag"
	"fmt"
	"os"

	"stopandstare/internal/bench"
)

func main() {
	out := flag.String("out", "load-report.json", "path for the JSON load report")
	smoke := flag.Bool("smoke", false, "run a scaled-down suite (CI smoke mode)")
	seed := flag.Uint64("seed", 1, "RNG seed for graphs and sessions")
	flag.Parse()

	if err := bench.WriteLoadJSON(*out, *seed, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "imload:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
