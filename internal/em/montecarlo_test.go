package em

import (
	"context"
	"math"
	"testing"

	"voltstack/internal/units"
)

func TestMonteCarloMatchesAnalyticSingle(t *testing.T) {
	g := NewGroup(0.4)
	g.AddT50(1000)
	analytic, err := g.MedianLifetime()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := g.SimulateMedianLifetime(context.Background(), 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !units.WithinRel(mc, analytic, 0.03) {
		t.Errorf("MC %g vs analytic %g", mc, analytic)
	}
}

func TestMonteCarloMatchesAnalyticGroup(t *testing.T) {
	// A realistic pad-array-like group: a spread of medians.
	g := NewGroup(0.4)
	for i := 0; i < 200; i++ {
		g.AddT50(500 + 10*float64(i))
	}
	analytic, err := g.MedianLifetime()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := g.SimulateMedianLifetime(context.Background(), 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !units.WithinRel(mc, analytic, 0.05) {
		t.Errorf("MC %g vs analytic %g disagree beyond 5%%", mc, analytic)
	}
}

func TestMonteCarloSkipsUnstressed(t *testing.T) {
	g := NewGroup(0.4)
	g.AddT50(800)
	g.AddT50(math.Inf(1))
	mc, err := g.SimulateMedianLifetime(context.Background(), 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !units.WithinRel(mc, 800, 0.05) {
		t.Errorf("MC %g, want ~800", mc)
	}
}

func TestMonteCarloEmptyGroup(t *testing.T) {
	g := NewGroup(0.4)
	if _, err := g.SimulateMedianLifetime(context.Background(), 100, 1); err == nil {
		t.Error("empty group should error")
	}
	g.AddT50(math.Inf(1))
	if _, err := g.SimulateMedianLifetime(context.Background(), 100, 1); err == nil {
		t.Error("unstressed-only group should error")
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	g := NewGroup(0.3)
	for _, v := range []float64{10, 20, 30} {
		g.AddT50(v)
	}
	a, _ := g.SimulateMedianLifetime(context.Background(), 1000, 42)
	b, _ := g.SimulateMedianLifetime(context.Background(), 1000, 42)
	if a != b {
		t.Error("same seed must reproduce")
	}
	c, _ := g.SimulateMedianLifetime(context.Background(), 1000, 43)
	if a == c {
		t.Error("different seed should differ")
	}
}

func TestMonteCarloWeakestLinkOrdering(t *testing.T) {
	small := NewGroup(0.4)
	large := NewGroup(0.4)
	for i := 0; i < 4; i++ {
		small.AddT50(1000)
	}
	for i := 0; i < 256; i++ {
		large.AddT50(1000)
	}
	ms, _ := small.SimulateMedianLifetime(context.Background(), 4000, 5)
	ml, _ := large.SimulateMedianLifetime(context.Background(), 4000, 5)
	if ml >= ms {
		t.Errorf("larger group should fail sooner: %g vs %g", ml, ms)
	}
}

// TestMonteCarloWorkerEquivalence is the determinism contract of the
// parallel Monte Carlo: because every trial draws from its own
// (seed, trial)-derived RNG stream, the estimate is bit-identical for
// any worker count.
func TestMonteCarloWorkerEquivalence(t *testing.T) {
	g := NewGroup(0.4)
	for i := 0; i < 50; i++ {
		g.AddT50(300 + 25*float64(i))
	}
	for _, trials := range []int{1, 2, 999, 1000} {
		ref, err := g.SimulateMedianLifetimeWorkers(trials, 11, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, err := g.SimulateMedianLifetimeWorkers(trials, 11, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Errorf("trials=%d workers=%d: %g != serial %g", trials, workers, got, ref)
			}
		}
	}
}

// TestMonteCarloDefaultMatchesExplicitWorkers pins SimulateMedianLifetime
// to the workers-parameterized implementation.
func TestMonteCarloDefaultMatchesExplicitWorkers(t *testing.T) {
	g := NewGroup(0.35)
	g.AddT50(100)
	g.AddT50(250)
	a, err := g.SimulateMedianLifetime(context.Background(), 501, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.SimulateMedianLifetimeWorkers(501, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("default-worker result %g != serial %g", a, b)
	}
}

func TestTrialStreamsDecorrelated(t *testing.T) {
	// Adjacent trials must not replay each other's stream shifted by one
	// draw (the failure mode of seeding SplitMix64 with seed+trial).
	s0 := newTrialSource(1, 0)
	s1 := newTrialSource(1, 1)
	a := []uint64{s0.Uint64(), s0.Uint64(), s0.Uint64()}
	b := []uint64{s1.Uint64(), s1.Uint64(), s1.Uint64()}
	if a[1] == b[0] && a[2] == b[1] {
		t.Error("trial 1's stream is trial 0's stream shifted by one")
	}
	if a[0] == b[0] {
		t.Error("distinct trials produced identical streams")
	}
}

func TestMonteCarloMinimumTrials(t *testing.T) {
	g := NewGroup(0.4)
	g.AddT50(100)
	if _, err := g.SimulateMedianLifetime(context.Background(), 0, 1); err != nil {
		t.Errorf("zero trials should clamp to one: %v", err)
	}
}
