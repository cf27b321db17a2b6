package baselines

import (
	"fmt"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

// TestWidthBaselinesPinned pins Borgs, TIM and TIM+ on nethept@0.3 (seed 7)
// under IC and LT: the RR-set count, the iteration count and the seeds of
// one run each. The three are the only algorithms that read RR-set widths
// w(R) = Σ_{v∈R} d_in(v) (Borgs' stopping rule, TIM's KPT estimate), so the
// pin holds the width arithmetic to its exact values wherever it is
// computed.
func TestWidthBaselinesPinned(t *testing.T) {
	pre, err := gen.PresetByName("nethept")
	if err != nil {
		t.Fatal(err)
	}
	g, err := pre.Generate(0.3, 7, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{K: 10, Epsilon: 0.3, Seed: 11, Workers: 2}
	cases := []struct {
		algo  string
		model diffusion.Model
		want  string // samples iterations seeds
	}{
		{"borgs", diffusion.IC, "41402 2 [3197 1536 237 3897 1769 1661 3016 1060 4378 244]"},
		{"tim", diffusion.IC, "272489 5 [3197 1536 237 3897 3016 1769 1060 4378 1661 567]"},
		{"tim+", diffusion.IC, "55572 5 [3197 1536 237 3897 3016 1060 1769 1661 4378 244]"},
		{"borgs", diffusion.LT, "29319 3 [3197 1536 237 3897 3016 4378 1769 1661 1060 244]"},
		{"tim", diffusion.LT, "160462 4 [3197 1536 237 3897 3016 1769 4378 1060 1661 590]"},
		{"tim+", diffusion.LT, "29137 4 [3197 1536 237 3897 3016 4378 1769 1661 1060 244]"},
	}
	for _, tc := range cases {
		s := sampler(t, g, tc.model)
		var res *Result
		switch tc.algo {
		case "borgs":
			res, err = Borgs(s, BorgsOptions{Options: opt, C: 0.05})
		case "tim":
			res, err = TIM(s, opt)
		default:
			res, err = TIMPlus(s, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%d %d %v", res.TotalSamples, res.Iterations, res.Seeds)
		if got != tc.want {
			t.Errorf("%s %v: got %q, pinned %q", tc.algo, tc.model, got, tc.want)
		}
	}
}
