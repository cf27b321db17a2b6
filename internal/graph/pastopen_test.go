package graph_test

import (
	"context"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/graph"
	"stopandstare/internal/ris"
)

func init() { graph.PastOpen = pastOpen }

// pastOpen is graph.PastOpen: per model, the plan compile and 64 RR sets
// through a one-worker store, then one IC cascade from node 0.
func pastOpen(g *graph.Graph) (ic, lt, sim error) {
	draw := func(model diffusion.Model) error {
		s, err := ris.NewSampler(g, model)
		if err != nil {
			return err
		}
		return ris.NewStore(s, 1, ris.StoreOptions{Workers: 1}).GenerateToCtx(context.Background(), 64)
	}
	ic, lt = draw(diffusion.IC), draw(diffusion.LT)
	_, _, sim = diffusion.Spread(g, diffusion.IC, []uint32{0}, diffusion.SpreadOptions{Runs: 1, Seed: 1})
	return ic, lt, sim
}
