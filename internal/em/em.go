// Package em models electromigration-induced wearout of PDN conductors
// (C4 pads and TSVs) following the paper's Sec. 3.3:
//
//   - each conductor's mean time to failure follows Black's equation,
//     MTTF = A · J^(-n) · exp(Ea / kT);
//   - individual lifetimes are lognormally distributed around that median;
//   - a group of conductors (a pad or TSV array) fails when its first
//     member fails: P(t) = 1 − Π(1 − Fi(t)), and the reported
//     "expected EM-damage-free lifetime" is the t with P(t) = 0.5.
//
// Absolute lifetimes depend on foundry constants that are not public; as in
// the paper, results are meaningful as ratios (all figures are normalized),
// so the prefactor A only needs to be consistent across compared scenarios.
package em

import (
	"errors"
	"fmt"
	"math"

	"voltstack/internal/units"
)

// BlackParams holds Black's-equation constants for one conductor class.
type BlackParams struct {
	A        float64 // technology prefactor (sets the absolute time scale)
	N        float64 // current-density exponent
	Ea       float64 // activation energy (eV)
	SigmaLog float64 // lognormal shape parameter σ of the failure distribution
	IRef     float64 // reference current (A) at which MTTF = A·exp(Ea/kT)
}

// DefaultC4 returns constants for solder C4 bumps. The current exponent is
// calibrated (n = 0.78) so that the normalized lifetime ratios of the
// paper's Fig. 5b are reproduced: an 8x off-chip current ratio between the
// regular and voltage-stacked PDN maps to the paper's ~5x lifetime gap.
// Published Black exponents for solder span roughly 0.5-2 depending on the
// failure mechanism; the value here is a fit to the paper's own results.
func DefaultC4() BlackParams {
	return BlackParams{A: 1, N: 0.78, Ea: 0.8, SigmaLog: 0.4, IRef: 50 * units.Milliampere}
}

// DefaultTSV returns constants for copper TSVs, with the current exponent
// calibrated (n = 0.9) to reproduce the normalized Fig. 5a ratios: the
// regular PDN's ~7x bottom-boundary current growth from 2 to 8 layers maps
// to the paper's ~84% lifetime degradation.
func DefaultTSV() BlackParams {
	return BlackParams{A: 1, N: 0.9, Ea: 0.9, SigmaLog: 0.4, IRef: 10 * units.Milliampere}
}

// Validate checks parameter sanity.
func (p BlackParams) Validate() error {
	switch {
	case p.A <= 0:
		return fmt.Errorf("em: prefactor A must be positive, got %g", p.A)
	case p.N <= 0:
		return fmt.Errorf("em: exponent N must be positive, got %g", p.N)
	case p.SigmaLog <= 0:
		return fmt.Errorf("em: SigmaLog must be positive, got %g", p.SigmaLog)
	case p.IRef <= 0:
		return fmt.Errorf("em: IRef must be positive, got %g", p.IRef)
	}
	return nil
}

// MTTF returns the median lifetime of a single conductor carrying |current|
// amperes at temperature tempK. A zero current yields +Inf (no EM stress).
func (p BlackParams) MTTF(current, tempK float64) float64 {
	i := math.Abs(current)
	if i == 0 {
		return math.Inf(1)
	}
	return p.A * math.Pow(i/p.IRef, -p.N) * math.Exp(p.Ea/(units.BoltzmannEV*tempK))
}

// LognormalCDF returns the probability that a conductor with median
// lifetime t50 and shape sigma has failed by time t.
func LognormalCDF(t, t50, sigma float64) float64 {
	if t <= 0 {
		return 0
	}
	if math.IsInf(t50, 1) {
		return 0
	}
	return normalCDF((math.Log(t) - math.Log(t50)) / sigma)
}

// normalCDF is the standard normal CDF Φ(z).
func normalCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// Group models a population of conductors subject to EM wearout, e.g. the
// power-supply C4 pad array or a TSV array.
//
// The stressed conductors are stored as runs of consecutively added equal
// medians: pdngrid expands each lumped pad or TSV site into that many
// conductors carrying the same current, several per site. The analytic
// kernel evaluates its transcendentals once per run and the Monte Carlo
// a few per trial, not one per conductor, and both return the bits a loop
// over the individual conductors in insertion order returns (DESIGN §7).
type Group struct {
	sigma float64
	n     int // conductors added, unstressed ones included
	runs  []run
}

// run is a stretch of n consecutively added conductors (unstressed ones
// between them aside) that share the finite median t50.
type run struct {
	t50, logT50 float64
	n           int
}

// NewGroup returns an empty group with lognormal shape sigma.
func NewGroup(sigma float64) *Group {
	if !(sigma > 0) {
		panic(fmt.Sprintf("em: sigma must be positive, got %g", sigma))
	}
	return &Group{sigma: sigma}
}

// AddT50 adds a conductor by its median lifetime. Infinite medians
// (unstressed conductors) are accepted and never contribute to failure.
func (g *Group) AddT50(t50 float64) {
	if !(t50 > 0) {
		panic(fmt.Sprintf("em: t50 must be positive, got %g", t50))
	}
	g.n++
	if math.IsInf(t50, 1) {
		return
	}
	if k := len(g.runs) - 1; k >= 0 && g.runs[k].t50 == t50 {
		g.runs[k].n++
		return
	}
	g.runs = append(g.runs, run{t50: t50, logT50: math.Log(t50), n: 1})
}

// AddConductor adds a conductor by its current and temperature using the
// given Black parameters.
func (g *Group) AddConductor(p BlackParams, current, tempK float64) {
	g.AddT50(p.MTTF(current, tempK))
}

// Len returns the number of conductors in the group.
func (g *Group) Len() int { return g.n }

// FailureProb returns P(t) = 1 − Π(1 − Fi(t)), computed in log space so
// large groups do not underflow.
//
// Each run's CDF and log1p are evaluated once; its term is then added once
// per conductor, so the float additions are exactly those of a loop over
// the conductors. Unstressed conductors contribute log1p(−0) = −0, which
// leaves the sum unchanged, and are not stored.
func (g *Group) FailureProb(t float64) float64 {
	var logSurvival float64
	if !(t <= 0) { // nothing has failed by t <= 0; a NaN t gives NaN
		logT := math.Log(t)
		for _, r := range g.runs {
			f := normalCDF((logT - r.logT50) / g.sigma)
			if f >= 1 {
				return 1
			}
			term := math.Log1p(-f)
			for k := 0; k < r.n; k++ {
				logSurvival += term
			}
		}
	}
	return -math.Expm1(logSurvival)
}

// ErrEmptyGroup is returned when a lifetime is requested for a group with
// no stressed conductors.
var ErrEmptyGroup = errors.New("em: group has no conductors under EM stress")

// MedianLifetime returns the expected EM-damage-free lifetime: the time at
// which the probability that at least one conductor has failed reaches 1/2.
func (g *Group) MedianLifetime() (float64, error) {
	return g.LifetimeAtProb(0.5)
}

// LifetimeAtProb returns the time at which the group failure probability
// reaches prob (0 < prob < 1), found by bisection in log time.
func (g *Group) LifetimeAtProb(prob float64) (float64, error) {
	if prob <= 0 || prob >= 1 {
		return 0, fmt.Errorf("em: probability must be in (0,1), got %g", prob)
	}
	minT50 := math.Inf(1)
	for _, r := range g.runs {
		minT50 = math.Min(minT50, r.t50)
	}
	if math.IsInf(minT50, 1) {
		return 0, ErrEmptyGroup
	}

	// P is increasing in t. At t = minT50, the weakest conductor alone has
	// failed with probability 1/2, so P(minT50) ≥ 1/2 ≥ prob for the median
	// query; for general prob widen the bracket until it straddles.
	lo, hi := minT50, minT50
	for g.FailureProb(lo) > prob {
		lo /= 4
		if lo < minT50*1e-30 {
			return 0, fmt.Errorf("em: bisection bracket failure (lo)")
		}
	}
	for g.FailureProb(hi) < prob {
		hi *= 4
		if hi > minT50*1e30 {
			return 0, fmt.Errorf("em: bisection bracket failure (hi)")
		}
	}
	for i := 0; i < 200 && hi/lo > 1+1e-12; i++ {
		mid := math.Sqrt(lo * hi)
		if g.FailureProb(mid) < prob {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi), nil
}
