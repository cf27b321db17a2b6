package core

import (
	"testing"

	"stopandstare/internal/diffusion"
)

func TestSSATraceCheckpoints(t *testing.T) {
	g := midGraph(t, 1000, 5000, 131)
	s := sampler(t, g, diffusion.LT)
	var cps []Checkpoint
	res, err := runSSA(s, Options{K: 10, Epsilon: 0.2, Seed: 137,
		Trace: func(c Checkpoint) { cps = append(cps, c) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != res.Iterations {
		t.Fatalf("%d checkpoints for %d iterations", len(cps), res.Iterations)
	}
	for i, c := range cps {
		if c.Iteration != i+1 {
			t.Fatalf("checkpoint %d has iteration %d", i, c.Iteration)
		}
		if i > 0 && c.Samples <= cps[i-1].Samples {
			t.Fatal("samples must double between checkpoints")
		}
		if c.Samples <= 0 {
			t.Fatal("checkpoint without samples")
		}
	}
	if !res.HitCap && !cps[len(cps)-1].Passed {
		t.Fatal("final checkpoint must be the passing one")
	}
	for _, c := range cps[:len(cps)-1] {
		if c.Passed {
			t.Fatal("non-final checkpoint marked passed")
		}
	}
}

func TestDSSATraceCheckpoints(t *testing.T) {
	g := midGraph(t, 1000, 5000, 139)
	s := sampler(t, g, diffusion.LT)
	var cps []Checkpoint
	res, err := runDSSA(s, Options{K: 10, Epsilon: 0.2, Seed: 149,
		Trace: func(c Checkpoint) { cps = append(cps, c) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != res.Iterations {
		t.Fatalf("%d checkpoints for %d iterations", len(cps), res.Iterations)
	}
	last := cps[len(cps)-1]
	if !res.HitCap {
		if !last.Passed {
			t.Fatal("final checkpoint must pass")
		}
		if last.EpsilonT > 0.2+1e-12 || last.EpsilonT <= 0 {
			t.Fatalf("final ε_t = %v", last.EpsilonT)
		}
	}
	// Stream doubles: samples at checkpoint t are 2·Λ·2^(t−1).
	for i := 1; i < len(cps); i++ {
		if cps[i].Samples != 2*cps[i-1].Samples {
			t.Fatalf("stream did not double: %d -> %d", cps[i-1].Samples, cps[i].Samples)
		}
	}
}

func TestTraceNilIsSafe(t *testing.T) {
	g := midGraph(t, 300, 1500, 151)
	s := sampler(t, g, diffusion.IC)
	if _, err := runSSA(s, Options{K: 3, Epsilon: 0.3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := runDSSA(s, Options{K: 3, Epsilon: 0.3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}
