package core

import (
	"fmt"
	"strings"

	"voltstack/internal/floorplan"
	"voltstack/internal/pdngrid"
	"voltstack/internal/thermal"
)

// ScalingRow is one stack depth in the many-layer scaling study.
type ScalingRow struct {
	Layers int
	// ThermallyFeasible under volumetric (micro-channel) cooling.
	ThermallyFeasible bool
	HotspotC          float64
	// Regular PDN stress.
	RegOffChipA float64 // board current at Vdd
	RegMaxPadMA float64 // hottest C4 pad (mA)
	RegMaxIRPct float64
	RegTSVLife  float64 // normalized to the 8-layer V-S point
	// Voltage-stacked alternative (4 conv/core, Few TSV).
	VSOffChipA float64 // board current at N·Vdd
	VSMaxIRPct float64
	VSTSVLife  float64
}

// ExtScalingResult is the many-layer exploration the paper's introduction
// motivates: once micro-channel cooling removes the thermal ceiling, how
// do the two power-delivery schemes scale to 12, 16, 24 layers?
type ExtScalingResult struct {
	Rows []ScalingRow
}

// ExtScaling evaluates stacks beyond the air-cooled limit under
// volumetric cooling.
func (s *Study) ExtScaling() (*ExtScalingResult, error) {
	layerCounts := []int{8, 12, 16, 24}
	mc := thermal.DefaultMicrochannel()

	// Thermal inputs (same per-layer power map at any depth).
	die := s.Chip.Die()
	tcfg := thermal.DefaultConfig(die, 8)
	fp, err := s.Chip.Floorplan()
	if err != nil {
		return nil, err
	}
	acts := make([]float64, s.Chip.NumCores())
	for i := range acts {
		acts[i] = 1
	}
	pm, err := s.Chip.PowerMap(acts)
	if err != nil {
		return nil, err
	}
	raster := floorplan.NewRaster(die, tcfg.Nx, tcfg.Ny)
	cells, err := raster.Distribute(fp.Blocks, pm)
	if err != nil {
		return nil, err
	}

	// Normalization base: the 8-layer V-S TSV lifetime.
	base, err := s.tsvLifeAt(pdngrid.VoltageStacked, 8)
	if err != nil {
		return nil, err
	}
	if err := checkPositive("scaling base lifetime", base); err != nil {
		return nil, err
	}

	res := &ExtScalingResult{}
	for _, layers := range layerCounts {
		row := ScalingRow{Layers: layers}

		cfg := tcfg
		cfg.Layers = layers
		maps := make([][]float64, layers)
		for i := range maps {
			maps[i] = cells
		}
		tr, err := thermal.SolveMicrochannel(cfg, mc, maps)
		if err != nil {
			return nil, err
		}
		row.HotspotC = tr.MaxC
		row.ThermallyFeasible = tr.MaxC < 100

		reg, err := s.RegularPDN(layers, pdngrid.FewTSV(), 0.5)
		if err != nil {
			return nil, err
		}
		rr, err := s.solveUniform(reg)
		if err != nil {
			return nil, err
		}
		row.RegOffChipA = rr.InputPower / s.Params.Vdd
		row.RegMaxIRPct = 100 * rr.MaxIRDropFrac
		row.RegMaxPadMA = 1000 * maxOf(rr.PadCurrents)
		if life, err := s.TSVLifetime(rr); err == nil {
			row.RegTSVLife = life / base
		} else {
			return nil, err
		}

		vs, err := s.VoltageStackedPDN(layers, 4, pdngrid.FewTSV(), 0.5)
		if err != nil {
			return nil, err
		}
		rv, err := s.solveUniform(vs)
		if err != nil {
			return nil, err
		}
		row.VSOffChipA = rv.InputPower / (s.Params.Vdd * float64(layers))
		row.VSMaxIRPct = 100 * rv.MaxIRDropFrac
		if life, err := s.TSVLifetime(rv); err == nil {
			row.VSTSVLife = life / base
		} else {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (s *Study) tsvLifeAt(kind pdngrid.Kind, layers int) (float64, error) {
	var p *pdngrid.PDN
	var err error
	if kind == pdngrid.Regular {
		p, err = s.RegularPDN(layers, pdngrid.FewTSV(), 0.5)
	} else {
		p, err = s.VoltageStackedPDN(layers, 4, pdngrid.FewTSV(), 0.5)
	}
	if err != nil {
		return 0, err
	}
	r, err := s.solveUniform(p)
	if err != nil {
		return 0, err
	}
	return s.TSVLifetime(r)
}

func maxOf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// RenderExtScaling formats the many-layer scaling study.
func RenderExtScaling(r *ExtScalingResult) string {
	var b strings.Builder
	b.WriteString("Extension: many-layer scaling under micro-channel (volumetric) cooling\n")
	b.WriteString("  layers  hotspot  | regular: Iboard  maxPad   IR%   TSVlife | V-S: Iboard   IR%   TSVlife\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6d %7.0fC | %13.1fA %6.0fmA %5.1f%% %8.2f | %9.1fA %5.1f%% %8.2f\n",
			row.Layers, row.HotspotC,
			row.RegOffChipA, row.RegMaxPadMA, row.RegMaxIRPct, row.RegTSVLife,
			row.VSOffChipA, row.VSMaxIRPct, row.VSTSVLife)
	}
	b.WriteString("  (TSV lifetimes normalized to the 8-layer V-S point)\n")
	b.WriteString("  -> volumetric cooling removes the thermal ceiling, and exactly as the paper's\n")
	b.WriteString("     introduction argues, power delivery becomes the wall: the regular PDN's\n")
	b.WriteString("     board current, pad stress and noise grow with N while the stack's off-chip\n")
	b.WriteString("     current and lifetime stay flat\n")
	return b.String()
}
