package core

import (
	"fmt"
	"math"
	"strings"

	"voltstack/internal/floorplan"
	"voltstack/internal/thermal"
)

// ExtElectrothermalResult reports the leakage-temperature fixed point of
// the stacked processor — a cross-layer coupling the paper's toolchain
// contains (McPAT + HotSpot) but does not close the loop on.
type ExtElectrothermalResult struct {
	Layers int
	// UncoupledHotspotC evaluates leakage at the 85 °C characterization
	// point (the paper's methodology).
	UncoupledHotspotC float64
	// CoupledHotspotC is the converged electrothermal fixed point.
	CoupledHotspotC float64
	// LeakageAmplification is converged total leakage relative to the
	// nominal-temperature value.
	LeakageAmplification float64
	Iterations           int
	// Converged is false if the loop hit its iteration budget (a sign of
	// approaching thermal runaway).
	Converged bool
}

// ExtElectrothermal iterates power(T) -> thermal -> T until the per-core
// temperatures converge, for the given stack depth.
func (s *Study) ExtElectrothermal(layers int) (*ExtElectrothermalResult, error) {
	if layers < 1 {
		return nil, fmt.Errorf("core: need at least 1 layer")
	}
	chip := s.Chip
	cores := chip.NumCores()
	die := chip.Die()
	cfg := thermal.DefaultConfig(die, layers)
	fp, err := chip.Floorplan()
	if err != nil {
		return nil, err
	}
	raster := floorplan.NewRaster(die, cfg.Nx, cfg.Ny)

	acts := make([]float64, cores)
	for i := range acts {
		acts[i] = 1
	}

	// mapsFor builds per-layer cell power maps from per-layer, per-core
	// temperatures.
	mapsFor := func(temps [][]float64) ([][]float64, error) {
		out := make([][]float64, layers)
		for l := 0; l < layers; l++ {
			pm, err := chip.PowerMapAt(acts, temps[l])
			if err != nil {
				return nil, err
			}
			cells, err := raster.Distribute(fp.Blocks, pm)
			if err != nil {
				return nil, err
			}
			out[l] = cells
		}
		return out, nil
	}

	// coreTemps averages the solved cell temperatures over each core tile.
	coreTemps := func(r *thermal.Result) [][]float64 {
		out := make([][]float64, layers)
		for l := range out {
			sums := make([]float64, cores)
			counts := make([]float64, cores)
			for c, t := range r.TempsC[l] {
				ix, iy := c%cfg.Nx, c/cfg.Nx
				cell := raster.CellRect(ix, iy)
				cx, cy := cell.Center()
				if tile := fp.TileOf(cx, cy); tile >= 0 {
					sums[tile] += t
					counts[tile]++
				}
			}
			row := make([]float64, cores)
			for i := range row {
				if counts[i] > 0 {
					row[i] = sums[i] / counts[i]
				} else {
					row[i] = cfg.AmbientC
				}
			}
			out[l] = row
		}
		return out
	}

	nominal := make([][]float64, layers)
	for l := range nominal {
		row := make([]float64, cores)
		for i := range row {
			row[i] = 85 // the characterization temperature
		}
		nominal[l] = row
	}

	// Uncoupled: one thermal solve at nominal leakage.
	maps, err := mapsFor(nominal)
	if err != nil {
		return nil, err
	}
	var nominalPower float64
	for _, m := range maps {
		for _, w := range m {
			nominalPower += w
		}
	}
	r0, err := thermal.Solve(cfg, maps)
	if err != nil {
		return nil, err
	}
	res := &ExtElectrothermalResult{Layers: layers, UncoupledHotspotC: r0.MaxC}

	// Fixed point.
	temps := coreTemps(r0)
	const maxIter = 30
	prevHot := r0.MaxC
	for it := 1; it <= maxIter; it++ {
		maps, err := mapsFor(temps)
		if err != nil {
			return nil, err
		}
		r, err := thermal.Solve(cfg, maps)
		if err != nil {
			return nil, err
		}
		res.Iterations = it
		res.CoupledHotspotC = r.MaxC
		var total float64
		for _, m := range maps {
			for _, w := range m {
				total += w
			}
		}
		res.LeakageAmplification = 1 + (total-nominalPower)/(nominalPower*leakFraction(s))
		if math.Abs(r.MaxC-prevHot) < 0.05 {
			res.Converged = true
			break
		}
		prevHot = r.MaxC
		temps = coreTemps(r)
	}
	return res, nil
}

func leakFraction(s *Study) float64 {
	return s.Chip.Core.Leakage / s.Chip.Core.PeakPower()
}

// RenderExtElectrothermal formats the coupling study across stack depths.
func RenderExtElectrothermal(rows []*ExtElectrothermalResult) string {
	var b strings.Builder
	b.WriteString("Extension: electrothermal coupling (leakage grows ~2x per 25 C; loop closed to a fixed point)\n")
	b.WriteString("  layers  hotspot (85C leakage)  hotspot (coupled)  leakage amplification\n")
	for _, r := range rows {
		status := ""
		if !r.Converged {
			status = "  NOT CONVERGED (thermal runaway)"
		}
		fmt.Fprintf(&b, "  %6d %18.1fC %17.1fC %17.2fx%s\n",
			r.Layers, r.UncoupledHotspotC, r.CoupledHotspotC, r.LeakageAmplification, status)
	}
	b.WriteString("  -> fixed-85C leakage OVERSTATES power for cool shallow stacks (they run far\n")
	b.WriteString("     below 85C) but UNDERSTATES the 8-layer hotspot, where amplified leakage\n")
	b.WriteString("     consumes part of the headroom that admitted the 8th layer\n")
	return b.String()
}
