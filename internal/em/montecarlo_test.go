package em

import (
	"context"
	"math"
	"math/rand"
	"sort"
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

// TestMonteCarloTrialMinimaPlausible is an oracle on the sampled trial
// minima themselves: every minimum is a positive number, and the worst
// lies no more than 6σ (in log-lifetime) below the median of minima. A
// worse tail means a conductor drew an implausible lifetime, which points
// at corrupted medians or a broken stream rather than sampling noise.
func TestMonteCarloTrialMinimaPlausible(t *testing.T) {
	const sigma = 0.4
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	for _, c := range []struct {
		name string
		t50s []float64
	}{
		{"realistic", realisticMedians()},
		{"single", []float64{1000}},
	} {
		g := NewGroup(sigma)
		for _, v := range c.t50s {
			g.AddT50(v)
		}
		floor := g.fastFloor()
		minima := make([]float64, trials)
		for tr := range minima {
			m := g.trialMinimum(1, int64(tr), floor)
			if math.IsNaN(m) || m <= 0 {
				t.Fatalf("%s: trial %d minimum = %v, want > 0", c.name, tr, m)
			}
			minima[tr] = m
		}
		sort.Float64s(minima)
		med, worst := minima[trials/2], minima[0]
		if worst < med*math.Exp(-6*sigma) {
			t.Errorf("%s: worst minimum %g is %.2fσ below the median %g, want within 6σ",
				c.name, worst, math.Log(med/worst)/sigma, med)
		}
	}
}

// TestTrialAllocatesNothing pins a trial's stream to a value: a trial
// derives its stream and draws every normal without allocating.
func TestTrialAllocatesNothing(t *testing.T) {
	g := NewGroup(0.4)
	for i := 0; i < 1000; i++ {
		g.AddT50(500 + float64(i))
	}
	floor := g.fastFloor()
	tr := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		g.trialMinimum(1, tr, floor)
		tr++
	})
	if allocs != 0 {
		t.Errorf("a trial over %d conductors allocates %v times, want 0", g.Len(), allocs)
	}
}

var sinkMinimum float64

// BenchmarkTrialMinimum times one Monte Carlo trial on the shape of the
// 32×32 regular Few-TSV group that emlife and the em-mc benchmark
// simulate: 12,320 conductors at σ = 0.4, one per run, so a trial costs a
// normal draw and a key per conductor. It reports ns per conductor.
func BenchmarkTrialMinimum(b *testing.B) {
	const conductors = 12320
	rng := rand.New(rand.NewSource(5))
	g := NewGroup(0.4)
	for g.Len() < conductors {
		g.AddT50(1e11 * math.Exp(rng.NormFloat64()))
	}
	if len(g.runs) != conductors {
		b.Fatalf("%d runs, want one per conductor", len(g.runs))
	}
	floor := g.fastFloor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMinimum = g.trialMinimum(1, int64(i), floor)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/conductors, "ns/conductor")
}
