// Package-level benchmarks: one testing.B benchmark per table and figure of
// the paper's evaluation (§7), as registered in internal/bench. Each benchmark
// executes the registered harness experiment in Quick mode (reduced dataset
// scale and k sweep) so `go test -bench=. -benchmem` regenerates every
// artifact's shape in minutes; `cmd/imbench` runs the full-scale versions.
package stopandstare_test

import (
	"io"
	"testing"

	"stopandstare"
	"stopandstare/internal/bench"
)

func quickCfg() bench.Config {
	// Quick mode shrinks the datasets to 10% of the harness defaults;
	// the extra 0.5 multiplier and the short k-sweep keep the complete
	// artifact suite inside Go's default 10-minute test timeout even for
	// the dense IC sweeps (TIM's fixed-θ sampling dominates there — which
	// is itself the paper's observation).
	return bench.Config{
		Quick:    true,
		Workers:  2,
		Seed:     1,
		ScaleMul: 0.5,
		KValues:  []int{1, 20, 100},
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(quickCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2DatasetStats regenerates Table 2 (dataset statistics).
func BenchmarkTable2DatasetStats(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig2InfluenceLT regenerates Fig. 2 (expected influence vs k, LT).
func BenchmarkFig2InfluenceLT(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3InfluenceIC regenerates Fig. 3 (expected influence vs k, IC).
func BenchmarkFig3InfluenceIC(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4RuntimeLT regenerates Fig. 4 (running time vs k, LT).
func BenchmarkFig4RuntimeLT(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5RuntimeIC regenerates Fig. 5 (running time vs k, IC).
func BenchmarkFig5RuntimeIC(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6MemoryLT regenerates Fig. 6 (memory usage vs k, LT).
func BenchmarkFig6MemoryLT(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7MemoryIC regenerates Fig. 7 (memory usage vs k, IC).
func BenchmarkFig7MemoryIC(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkTable3AcrossDatasets regenerates Table 3 (runtime and #RR sets
// of D-SSA/SSA/IMM on four datasets under LT).
func BenchmarkTable3AcrossDatasets(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4Topics regenerates Table 4 (TVM topics, targeted groups).
func BenchmarkTable4Topics(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig8TVMRuntime regenerates Fig. 8 (TVM runtime: SSA, D-SSA,
// KB-TIM on two topics).
func BenchmarkFig8TVMRuntime(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkAblationEpsilonSplit runs the §4.2 ε-split sensitivity ablation.
func BenchmarkAblationEpsilonSplit(b *testing.B) { runExperiment(b, "ablation-eps") }

// BenchmarkAblationFixedTheta runs the oracle-threshold (Eq. 14) ablation.
func BenchmarkAblationFixedTheta(b *testing.B) { runExperiment(b, "ablation-theta") }

// BenchmarkMaximizeDSSA measures the end-to-end public API on a mid-size
// power-law network (the paper's core operation).
func BenchmarkMaximizeDSSA(b *testing.B) {
	g, err := stopandstare.GeneratePowerLaw(20000, 120000, 2.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stopandstare.Maximize(g, stopandstare.LT, stopandstare.DSSA, stopandstare.Options{K: 50, Epsilon: 0.1, Seed: uint64(i), Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaximizeSSA measures SSA on the same instance for comparison.
func BenchmarkMaximizeSSA(b *testing.B) {
	g, err := stopandstare.GeneratePowerLaw(20000, 120000, 2.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stopandstare.Maximize(g, stopandstare.LT, stopandstare.SSA, stopandstare.Options{K: 50, Epsilon: 0.1, Seed: uint64(i), Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaximizeIMM measures the IMM baseline on the same instance.
func BenchmarkMaximizeIMM(b *testing.B) {
	g, err := stopandstare.GeneratePowerLaw(20000, 120000, 2.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stopandstare.Maximize(g, stopandstare.LT, stopandstare.IMM, stopandstare.Options{K: 50, Epsilon: 0.1, Seed: uint64(i), Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
