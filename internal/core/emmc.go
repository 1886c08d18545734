package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"voltstack/internal/em"
	"voltstack/internal/pdngrid"
	"voltstack/internal/units"
)

// ExtEMMonteCarloResult cross-checks the analytic first-failure lifetime
// (the CDF-product closed form behind every Fig. 5 number) against the
// Monte Carlo estimator at one design point. The two converge as trials
// grow; the relative gap is the sampling error a trial budget buys.
type ExtEMMonteCarloResult struct {
	Trials     int
	TSVClosed  float64 // analytic TSV-array lifetime (arbitrary units)
	TSVMonte   float64 // Monte Carlo estimate, same units
	TSVGapPct  float64 // |MC - closed| / closed, %
	C4Closed   float64
	C4Monte    float64
	C4GapPct   float64
	Conductors int // stressed conductors in the TSV group
}

// ExtEMMonteCarlo solves the 8-layer V-S design point (4 conv/core, Few
// TSV, full power pads) and compares closed-form and Monte Carlo lifetimes
// for both conductor arrays. Deterministic for a fixed study seed and any
// worker count. Cancelling ctx stops the Monte Carlo sampling.
func (s *Study) ExtEMMonteCarlo(ctx context.Context, trials int) (*ExtEMMonteCarloResult, error) {
	if trials < 1 {
		return nil, fmt.Errorf("core: need at least 1 Monte Carlo trial")
	}
	p, err := s.VoltageStackedPDN(s.MaxLayers, 4, pdngrid.FewTSV(), 1.0)
	if err != nil {
		return nil, err
	}
	r, err := s.solveUniform(p)
	if err != nil {
		return nil, err
	}

	res := &ExtEMMonteCarloResult{Trials: trials}
	tempK := units.CelsiusToKelvin(s.Params.TempCelsius)
	eval := func(currents []float64, bp em.BlackParams) (closed, monte float64, n int, err error) {
		g := em.NewGroup(bp.SigmaLog)
		for _, c := range currents {
			g.AddConductor(bp, c, tempK)
		}
		if closed, err = g.MedianLifetime(); err != nil {
			return 0, 0, 0, err
		}
		if monte, err = g.SimulateMedianLifetime(ctx, trials, s.Seed); err != nil {
			return 0, 0, 0, err
		}
		return closed, monte, len(currents), nil
	}
	if res.TSVClosed, res.TSVMonte, res.Conductors, err = eval(r.TSVCurrents, s.EMTsv); err != nil {
		return nil, err
	}
	if res.C4Closed, res.C4Monte, _, err = eval(r.PadCurrents, s.EMC4); err != nil {
		return nil, err
	}
	res.TSVGapPct = 100 * math.Abs(res.TSVMonte-res.TSVClosed) / res.TSVClosed
	res.C4GapPct = 100 * math.Abs(res.C4Monte-res.C4Closed) / res.C4Closed
	return res, nil
}

// RenderExtEMMonteCarlo formats the closed-form vs. Monte Carlo check.
func RenderExtEMMonteCarlo(r *ExtEMMonteCarloResult) string {
	var b strings.Builder
	b.WriteString("Extension: EM lifetime, closed form vs. Monte Carlo (8-layer V-S, Few TSV)\n")
	fmt.Fprintf(&b, "  %d trials over %d stressed TSV conductors\n", r.Trials, r.Conductors)
	fmt.Fprintf(&b, "  TSV array: closed %.4g, Monte Carlo %.4g (gap %.2f%%)\n", r.TSVClosed, r.TSVMonte, r.TSVGapPct)
	fmt.Fprintf(&b, "  C4 array:  closed %.4g, Monte Carlo %.4g (gap %.2f%%)\n", r.C4Closed, r.C4Monte, r.C4GapPct)
	return b.String()
}
