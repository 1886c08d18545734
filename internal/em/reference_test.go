package em

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The references below are the per-conductor loops that the run-length
// and log-key kernels replaced: one CDF and log1p per conductor, one exp
// per conductor per trial, and their own copy of the SplitMix64 trial
// streams. They share no code with the kernels, whose every result must
// match them bit for bit.

type refGroup struct {
	sigma float64
	t50s  []float64
}

func refCDF(t, t50, sigma float64) float64 {
	if t <= 0 || math.IsInf(t50, 1) {
		return 0
	}
	z := (math.Log(t) - math.Log(t50)) / sigma
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

func refFailureProb(g refGroup, t float64) float64 {
	var logSurvival float64
	for _, t50 := range g.t50s {
		f := refCDF(t, t50, g.sigma)
		if f >= 1 {
			return 1
		}
		logSurvival += math.Log1p(-f)
	}
	return -math.Expm1(logSurvival)
}

func refLifetimeAtProb(g refGroup, prob float64) (float64, error) {
	minT50 := math.Inf(1)
	for _, t := range g.t50s {
		if t < minT50 {
			minT50 = t
		}
	}
	if math.IsInf(minT50, 1) {
		return 0, ErrEmptyGroup
	}
	lo, hi := minT50, minT50
	for refFailureProb(g, lo) > prob {
		lo /= 4
		if lo < minT50*1e-30 {
			return 0, errors.New("bracket (lo)")
		}
	}
	for refFailureProb(g, hi) < prob {
		hi *= 4
		if hi > minT50*1e30 {
			return 0, errors.New("bracket (hi)")
		}
	}
	for i := 0; i < 200 && hi/lo > 1+1e-12; i++ {
		mid := math.Sqrt(lo * hi)
		if refFailureProb(g, mid) < prob {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi), nil
}

// refSource is the SplitMix64 trial stream of DESIGN §7.
type refSource struct{ state uint64 }

func refMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *refSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return refMix(s.state)
}
func (s *refSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *refSource) Seed(int64)   {}

// refTrialMinimum is one Monte Carlo trial over the finite medians.
func refTrialMinimum(sigma float64, finite []float64, seed, tr int64) float64 {
	z := refMix(refMix(uint64(seed)) ^ refMix(uint64(tr)+0x9e3779b97f4a7c15))
	rng := rand.New(&refSource{state: z})
	first := math.Inf(1)
	for _, t50 := range finite {
		if t := t50 * math.Exp(sigma*rng.NormFloat64()); t < first {
			first = t
		}
	}
	return first
}

func refSimulate(g refGroup, trials int, seed int64) (float64, error) {
	var finite []float64
	for _, t := range g.t50s {
		if !math.IsInf(t, 1) {
			finite = append(finite, t)
		}
	}
	if len(finite) == 0 {
		return 0, ErrEmptyGroup
	}
	if trials < 1 {
		trials = 1
	}
	minima := make([]float64, trials)
	for tr := range minima {
		minima[tr] = refTrialMinimum(g.sigma, finite, seed, int64(tr))
	}
	sort.Float64s(minima)
	mid := len(minima) / 2
	if len(minima)%2 == 0 {
		return (minima[mid-1] + minima[mid]) / 2, nil
	}
	return minima[mid], nil
}

// sameFloat is bitwise equality, with any two NaNs equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkAgainstReference compares every kernel of the group built from
// (sigma, t50s) with the per-conductor references, for the given Monte
// Carlo seed, trial counts and worker counts.
func checkAgainstReference(t *testing.T, sigma float64, t50s []float64, seed int64, trials, workers []int) {
	t.Helper()
	ref := refGroup{sigma: sigma, t50s: t50s}
	g := NewGroup(sigma)
	for _, v := range t50s {
		g.AddT50(v)
	}
	if g.Len() != len(t50s) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(t50s))
	}
	probes := []float64{0, -1, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64, 1, math.MaxFloat64}
	for _, v := range t50s {
		if !math.IsInf(v, 1) {
			probes = append(probes, v, v*0.5, v*3, math.Nextafter(v, 0))
			break
		}
	}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		want, wantErr := refLifetimeAtProb(ref, p)
		got, gotErr := g.LifetimeAtProb(p)
		if (wantErr == nil) != (gotErr == nil) || !sameFloat(got, want) {
			t.Fatalf("σ=%g n=%d LifetimeAtProb(%g) = %v (%v), reference %v (%v)",
				sigma, len(t50s), p, got, gotErr, want, wantErr)
		}
		if p == 0.5 {
			if m, err := g.MedianLifetime(); !sameFloat(m, got) || (err == nil) != (gotErr == nil) {
				t.Fatalf("MedianLifetime = %v (%v), LifetimeAtProb(0.5) = %v", m, err, got)
			}
		}
		if wantErr == nil {
			probes = append(probes, want)
		}
	}
	for _, x := range probes {
		if got, want := g.FailureProb(x), refFailureProb(ref, x); !sameFloat(got, want) {
			t.Fatalf("σ=%g n=%d FailureProb(%g) = %v, reference %v", sigma, len(t50s), x, got, want)
		}
	}
	// Each trial's minimum, not only the median of minima: a guard that
	// loses a conductor in a few trials can leave the median unchanged.
	var finite []float64
	for _, v := range t50s {
		if !math.IsInf(v, 1) {
			finite = append(finite, v)
		}
	}
	if len(finite) > 0 {
		floor := g.fastFloor()
		for tr := int64(0); tr < int64(slices.Max(trials)); tr++ {
			if got, want := g.trialMinimum(seed, tr, floor), refTrialMinimum(sigma, finite, seed, tr); !sameFloat(got, want) {
				t.Fatalf("σ=%g n=%d trial %d: minimum %v, reference %v", sigma, len(t50s), tr, got, want)
			}
		}
	}
	for _, n := range trials {
		want, wantErr := refSimulate(ref, n, seed)
		for _, w := range workers {
			got, gotErr := g.SimulateMedianLifetimeWorkers(n, seed, w)
			if (wantErr == nil) != (gotErr == nil) || !sameFloat(got, want) {
				t.Fatalf("σ=%g n=%d trials=%d workers=%d: Monte Carlo %v (%v), reference %v (%v)",
					sigma, len(t50s), n, w, got, gotErr, want, wantErr)
			}
		}
	}
}

// randomMedians draws a group of runs of 1–8 equal medians with unstressed
// conductors in between. The runs share a centre drawn log-uniformly from
// the subnormals to 1e300 and spread around it by a width between nothing
// (near-ties one ulp apart) and 600 e-folds.
func randomMedians(rng *rand.Rand) []float64 {
	centre := math.Exp(-744 + rng.Float64()*(690+744))
	widths := []float64{0, 1e-14, 1, 30, 600}
	width := widths[rng.Intn(len(widths))]
	var t50s []float64
	for r := rng.Intn(40) + 1; r > 0; r-- {
		v := centre * math.Exp(width*(rng.Float64()-0.5))
		if width == 0 && rng.Intn(2) == 0 {
			v = math.Nextafter(v, math.Inf(1))
		}
		if !(v > 0) || math.IsInf(v, 1) {
			v = centre
		}
		for k := rng.Intn(8) + 1; k > 0; k-- {
			t50s = append(t50s, v)
		}
		if rng.Intn(5) == 0 {
			t50s = append(t50s, math.Inf(1))
		}
	}
	return t50s
}

func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	groups := 300
	if testing.Short() {
		groups = 60
	}
	for i := 0; i < groups; i++ {
		sigma := math.Exp(math.Log(1e-3) + rng.Float64()*math.Log(1e9)) // 1e-3 … 1e6
		checkAgainstReference(t, sigma, randomMedians(rng), int64(i),
			[]int{1, 2, 63, 64, 65, 1000}, []int{1, 2, 8})
	}
}

// realisticMedians is the shape the studies produce: thousands of
// conductors in 800 lumped sites, each site's conductors sharing a median.
func realisticMedians() []float64 {
	rng := rand.New(rand.NewSource(3))
	var t50s []float64
	for site := 0; site < 800; site++ {
		v := 1e11 * math.Exp(rng.NormFloat64())
		for k := rng.Intn(12) + 1; k > 0; k-- {
			t50s = append(t50s, v)
		}
	}
	return t50s
}

// TestKernelsMatchReferenceRealistic covers the shape the studies produce
// at the paper's σ = 0.4.
func TestKernelsMatchReferenceRealistic(t *testing.T) {
	checkAgainstReference(t, 0.4, realisticMedians(), 1, []int{1000}, []int{2})
}

// TestKernelsMatchReferenceEdges pins groups at the ends of the float
// range, where products and exps under- and overflow.
func TestKernelsMatchReferenceEdges(t *testing.T) {
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64
	cases := []struct {
		sigma float64
		t50s  []float64
	}{
		{0.4, []float64{tiny, tiny, 1e300}},
		{1e6, []float64{1e-300, 1e300, 1e300, 1, math.Inf(1), 1e-300}},
		{1e6, []float64{huge, tiny}},
		{300, []float64{1e300, 1e300, 1e-300}},
		{1e-3, []float64{1, math.Nextafter(1, 2), 1, math.Nextafter(1, 0)}},
		{math.MaxFloat64, []float64{1, 2}},
		// exp(σZ) overflows for the weaker conductor while the stronger
		// one's product stays finite and larger in key.
		{1000, []float64{math.Exp(-300), math.Exp(300)}},
		{1000, []float64{math.Exp(-300), math.Exp(-300), math.Exp(300), math.Exp(300)}},
		{0.4, []float64{math.Inf(1)}},
		{0.4, nil},
	}
	for _, c := range cases {
		checkAgainstReference(t, c.sigma, c.t50s, 2, []int{1, 2, 64, 1000}, []int{1, 8})
	}
}

// TestKernelsMatchReferenceNearTies draws medians whose logs lie within a
// few ulps of each other, with σZ at the same rounding level: the keys
// then order some conductors differently from their products, which is
// what keySlack must absorb.
func TestKernelsMatchReferenceNearTies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 60; i++ {
		centre := []float64{1e-300, 2.5, 1e300}[i%3]
		ulpLog := math.Abs(math.Nextafter(math.Log(centre), 0) - math.Log(centre))
		width := ulpLog * []float64{0.3, 3, 30}[rng.Intn(3)]
		sigma := ulpLog * math.Exp(rng.Float64()*math.Log(100)) / 10
		var t50s []float64
		for r := rng.Intn(30) + 2; r > 0; r-- {
			v := centre * (1 + width*(rng.Float64()-0.5))
			for k := rng.Intn(8) + 1; k > 0; k-- {
				t50s = append(t50s, v)
			}
		}
		checkAgainstReference(t, sigma, t50s, int64(i), []int{65, 1000}, []int{2})
	}
}

func FuzzGroupMatchesReference(f *testing.F) {
	f.Add(0.4, 1e11, 2e11, []byte{3, 7, 0x41, 2, 0x80}, uint16(100), int64(1))
	f.Add(1e6, 1e-300, 1e300, []byte{0, 1, 0x40, 0x81, 1}, uint16(65), int64(2))
	f.Add(300.0, math.SmallestNonzeroFloat64, 1.0, []byte{7, 0xc0, 7, 0x47}, uint16(64), int64(3))
	f.Add(1e-3, 1.0, math.Nextafter(1, 2), []byte{1, 0x41, 1, 0x41, 0xc1}, uint16(1), int64(4))
	f.Fuzz(func(t *testing.T, sigma, a, b float64, pattern []byte, trials uint16, seed int64) {
		if !(sigma > 0) || math.IsInf(sigma, 1) || !(a > 0) || !(b > 0) || len(pattern) > 64 {
			t.Skip()
		}
		// Each byte appends a run: its low 3 bits give the length 1–8,
		// bit 6 picks b over a and bit 7 inserts an unstressed conductor.
		var t50s []float64
		for _, c := range pattern {
			v := a
			if c&0x40 != 0 {
				v = b
			}
			for k := 0; k <= int(c&7); k++ {
				t50s = append(t50s, v)
			}
			if c&0x80 != 0 {
				t50s = append(t50s, math.Inf(1))
			}
		}
		checkAgainstReference(t, sigma, t50s, seed, []int{int(trials%300) + 1}, []int{1, 2})
	})
}

func TestNaNMediansAndSigmaRejected(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted NaN", name)
			}
		}()
		fn()
	}
	mustPanic("NewGroup", func() { NewGroup(math.NaN()) })
	mustPanic("AddT50", func() { NewGroup(0.4).AddT50(math.NaN()) })
	mustPanic("AddConductor", func() { NewGroup(0.4).AddConductor(DefaultTSV(), math.NaN(), 358) })
}

func TestMonteCarloHonorsCancellation(t *testing.T) {
	g := NewGroup(0.4)
	g.AddT50(100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.SimulateMedianLifetime(ctx, 1_000_000, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
}
