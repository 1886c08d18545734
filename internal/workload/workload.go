// Package workload generates synthetic per-application power-sample
// populations standing in for the paper's Gem5 + Parsec 2.0 statistical
// sampling (one thousand 2k-cycle samples per application, averaged with
// McPAT). The real traces are not redistributable, so each application is
// modeled as a bounded distribution of core activity factors calibrated to
// the statistics reported around Fig. 7:
//
//   - blackscholes, the best-case application, has a maximum intra-app
//     imbalance of about 10 %;
//   - the average maximum-imbalance ratio across applications is 65 %;
//   - the maximum imbalance across all samples of all applications
//     exceeds 90 %.
//
// Sampling is deterministic: every application derives its PRNG stream
// from a caller seed plus a stable per-application offset.
package workload

import (
	"math/rand"
	"sort"

	"voltstack/internal/units"
)

// SamplesPerApp is the paper's population size per application.
const SamplesPerApp = 1000

// App describes one application's activity distribution: samples are drawn
// from a symmetric triangular distribution over [MinAct, MaxAct].
type App struct {
	Name   string
	MinAct float64 // lowest dynamic activity factor
	MaxAct float64 // highest dynamic activity factor
}

// DesignImbalance returns the application's nominal maximum dynamic-power
// imbalance, 1 − MinAct/MaxAct.
func (a App) DesignImbalance() float64 {
	return 1 - a.MinAct/a.MaxAct
}

// ParsecApps returns the Parsec 2.0 suite used by the paper, with activity
// bounds calibrated to the Fig. 7 statistics.
func ParsecApps() []App {
	return []App{
		{"blackscholes", 0.72, 0.80},
		{"bodytrack", 0.20, 0.80},
		{"canneal", 0.12, 0.58},
		{"dedup", 0.14, 0.70},
		{"facesim", 0.28, 0.78},
		{"ferret", 0.24, 0.72},
		{"fluidanimate", 0.27, 0.80},
		{"freqmine", 0.33, 0.85},
		{"raytrace", 0.28, 0.86},
		{"streamcluster", 0.08, 0.55},
		{"swaptions", 0.44, 0.95},
		{"vips", 0.19, 0.66},
		{"x264", 0.12, 0.60},
	}
}

// Samples is a population of activity samples for one application.
type Samples struct {
	App  App
	Acts []float64
}

// Sample draws n activity samples deterministically from the app's
// distribution. The same (app, n, seed) always yields the same population.
func (a App) Sample(n int, seed int64) Samples {
	rng := rand.New(rand.NewSource(seed + int64(stableHash(a.Name))))
	acts := make([]float64, n)
	span := a.MaxAct - a.MinAct
	for i := range acts {
		// Symmetric triangular distribution: mean of two uniforms.
		u := (rng.Float64() + rng.Float64()) / 2
		acts[i] = a.MinAct + span*u
	}
	return Samples{App: a, Acts: acts}
}

// stableHash is a deterministic FNV-1a string hash (stdlib hash/fnv would
// also work; inlined here to keep the seed derivation obvious and fixed).
func stableHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// BoxStats are the five-number summary used for the Fig. 7 box plot.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
}

// Stats returns the five-number summary of the population.
func (s Samples) Stats() BoxStats {
	if len(s.Acts) == 0 {
		return BoxStats{}
	}
	sorted := append([]float64(nil), s.Acts...)
	sort.Float64s(sorted)
	q := func(p float64) float64 {
		idx := p * float64(len(sorted)-1)
		lo := int(idx)
		hi := lo
		if lo+1 < len(sorted) {
			hi = lo + 1
		}
		return units.Lerp(sorted[lo], sorted[hi], idx-float64(lo))
	}
	return BoxStats{
		Min:    sorted[0],
		Q1:     q(0.25),
		Median: q(0.5),
		Q3:     q(0.75),
		Max:    sorted[len(sorted)-1],
	}
}

// MaxImbalance returns the worst dynamic-power imbalance between any two
// samples of this population: 1 − min/max.
func (s Samples) MaxImbalance() float64 {
	st := s.Stats()
	if st.Max == 0 {
		return 0
	}
	return 1 - st.Min/st.Max
}

// Suite is a set of per-application populations.
type Suite []Samples

// DefaultSuite samples every Parsec application with the canonical
// population size and the given seed.
func DefaultSuite(seed int64) Suite {
	apps := ParsecApps()
	out := make(Suite, len(apps))
	for i, a := range apps {
		out[i] = a.Sample(SamplesPerApp, seed)
	}
	return out
}

// AverageMaxImbalance returns the mean over applications of each
// application's maximum intra-app imbalance — the paper's 65 % statistic.
func (s Suite) AverageMaxImbalance() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s {
		sum += p.MaxImbalance()
	}
	return sum / float64(len(s))
}

// GlobalMaxImbalance returns the worst imbalance between any two samples
// across all applications — the paper's "> 90 %" statistic.
func (s Suite) GlobalMaxImbalance() float64 {
	lo, hi := 1.0, 0.0
	for _, p := range s {
		st := p.Stats()
		if st.Min < lo {
			lo = st.Min
		}
		if st.Max > hi {
			hi = st.Max
		}
	}
	if hi == 0 {
		return 0
	}
	return 1 - lo/hi
}

// BestCaseApp returns the application with the smallest maximum imbalance
// (the paper's blackscholes observation).
func (s Suite) BestCaseApp() Samples {
	best := s[0]
	for _, p := range s[1:] {
		if p.MaxImbalance() < best.MaxImbalance() {
			best = p
		}
	}
	return best
}
