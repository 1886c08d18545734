package core

import (
	"fmt"
	"strings"

	"voltstack/internal/pdngrid"
	"voltstack/internal/power"
)

// ExtDVFSResult evaluates an alternative to converter provisioning: slow
// the FAST layers down (voltage/frequency scaling) until they match the
// slow layers, removing the imbalance the converters would otherwise
// shuttle. The currency of the comparison is the fast layers' lost
// performance versus the converter area that buys the same noise.
type ExtDVFSResult struct {
	ImbalancePct float64
	// DVFS operating point that equalizes layer power.
	VddScaled  float64 // scaled supply of the fast layers (V)
	FreqScaled float64 // their relative clock (fraction of nominal)
	PerfLoss   float64 // fraction of fast-layer throughput given up
	// Noise of the balanced stack vs. the imbalanced one (2 conv/core).
	ImbalancedIRPct float64
	BalancedIRPct   float64
	// The converter alternative: extra area (as % of a core) to reach the
	// same noise with 8 conv/core at full speed.
	ConverterAltIRPct   float64
	ConverterAltAreaPct float64
}

// ExtDVFS evaluates the DVFS-balancing tradeoff at the application-average
// imbalance on the lean 2-converter design.
func (s *Study) ExtDVFS() (*ExtDVFSResult, error) {
	const imbalance = 0.65
	model := power.DefaultAlphaPower()
	core := s.Chip.Core

	// Find the (V, f) point at which a fully active core's dynamic power
	// matches the slow layers' (1-x) level: (v/Vnom)²·(f(v)/fnom) = 1-x,
	// with f pinned to the alpha-power fmax at v. Bisection on v.
	target := 1 - imbalance
	lo, hi := model.Vt+0.05, core.Vdd
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		vr := mid / core.Vdd
		scale := vr * vr * model.FreqScale(mid, core.Vdd)
		if scale > target {
			hi = mid
		} else {
			lo = mid
		}
	}
	v := (lo + hi) / 2
	fScale := model.FreqScale(v, core.Vdd)

	res := &ExtDVFSResult{
		ImbalancePct: 100 * imbalance,
		VddScaled:    v,
		FreqScaled:   fScale,
		PerfLoss:     1 - fScale,
	}

	lean, err := s.VoltageStackedPDN(s.MaxLayers, 2, pdngrid.FewTSV(), 0.5)
	if err != nil {
		return nil, err
	}
	rImb, err := s.solveInterleaved(lean, imbalance)
	if err != nil {
		return nil, err
	}
	res.ImbalancedIRPct = 100 * rImb.MaxIRDropFrac
	// Balanced: every layer at the slow level.
	rBal, err := s.solve(lean, pdngrid.UniformActivities(s.MaxLayers, s.Chip.NumCores(), 1-imbalance))
	if err != nil {
		return nil, err
	}
	res.BalancedIRPct = 100 * rBal.MaxIRDropFrac

	// The converter alternative: keep full speed, add converters.
	rich, err := s.VoltageStackedPDN(s.MaxLayers, 8, pdngrid.FewTSV(), 0.5)
	if err != nil {
		return nil, err
	}
	rRich, err := s.solveInterleaved(rich, imbalance)
	if err != nil {
		return nil, err
	}
	res.ConverterAltIRPct = 100 * rRich.MaxIRDropFrac
	res.ConverterAltAreaPct = 100 * 6 * s.Converter.Area() / core.Area // 6 extra converters
	return res, nil
}

// RenderExtDVFS formats the DVFS-balancing comparison.
func RenderExtDVFS(r *ExtDVFSResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: DVFS balancing vs. converter provisioning, 8 layers, %.0f%% imbalance\n", r.ImbalancePct)
	fmt.Fprintf(&b, "  DVFS route: slow the fast layers to %.2f V / %.0f%% clock -> %.0f%% of their\n",
		r.VddScaled, 100*r.FreqScaled, 100*r.PerfLoss)
	fmt.Fprintf(&b, "              throughput lost; noise %.2f%% -> %.2f%% Vdd on the lean 2-conv design\n",
		r.ImbalancedIRPct, r.BalancedIRPct)
	fmt.Fprintf(&b, "  converter route: stay at full speed, add 6 converters/core (%.1f%% core area);\n",
		r.ConverterAltAreaPct)
	fmt.Fprintf(&b, "              noise %.2f%% Vdd with zero performance loss\n", r.ConverterAltIRPct)
	b.WriteString("  -> two real knobs: DVFS erases the imbalance itself (lowest noise) but pays\n")
	b.WriteString("     a third of the fast layers' throughput; converters keep full speed for ~3%\n")
	b.WriteString("     area each but only absorb — not remove — the differential current\n")
	return b.String()
}
