package gen

import (
	"fmt"
	"testing"

	"stopandstare/internal/graph"
)

// BenchmarkGeneratePreset times the end-to-end benchmark's densest and
// sparsest stand-ins from draw to built graph, at its dataset seed.
func BenchmarkGeneratePreset(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale float64
	}{{"orkut", 0.02}, {"dblp", 0.4}} {
		p, err := PresetByName(c.name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s@%g", c.name, c.scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Generate(c.scale, 1, graph.BuildOptions{Model: graph.WeightedCascade}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
