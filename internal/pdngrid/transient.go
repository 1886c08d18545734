package pdngrid

import (
	"fmt"
	"math"

	"voltstack/internal/circuit"
	"voltstack/internal/units"
)

// TransientConfig describes a transient (RLC) noise analysis on top of a
// PDN scenario — an extension beyond the paper's IR-only noise metric,
// using the same package/pad/TSV/converter network plus on-die decoupling
// capacitance and package inductance (the elements VoltSpot's RLC model
// carries).
type TransientConfig struct {
	// DecapPerArea is the on-die decoupling capacitance per die area per
	// layer (F/m²). Typical thin-oxide decap yields a few nF/mm².
	DecapPerArea float64
	// PkgL is the lumped package inductance per supply polarity (H).
	PkgL float64

	// The load event: every layer idles at RestActivity until t=0, then
	// steps to StepActivity — the worst-case synchronized di/dt event.
	RestActivity float64
	StepActivity float64

	DT    float64 // time step (s)
	Steps int     // steps after t=0
}

// DefaultTransient returns a representative air-cavity FCBGA package and
// on-die decap budget: 20 pH per polarity and 4 nF/mm² of decap. It steps
// the trapezoidal rule at 100 ps over a 30 ns window, the one the
// transient experiments print: a run at 25 ps moves none of their
// numbers by more than 0.15% Vdd (see DESIGN §12).
func DefaultTransient() TransientConfig {
	return TransientConfig{
		DecapPerArea: 4e-9 / (units.Millimeter * units.Millimeter),
		PkgL:         20e-12,
		RestActivity: 0.1,
		StepActivity: 1.0,
		DT:           100 * units.Picosecond,
		Steps:        300,
	}
}

// Validate checks the transient configuration.
func (tc TransientConfig) Validate() error {
	switch {
	case tc.DecapPerArea < 0 || tc.PkgL < 0:
		return fmt.Errorf("pdngrid: negative transient element values")
	case tc.DT <= 0 || tc.Steps <= 0:
		return fmt.Errorf("pdngrid: need positive DT and Steps")
	case tc.RestActivity < 0 || tc.RestActivity > 1 || tc.StepActivity < 0 || tc.StepActivity > 1:
		return fmt.Errorf("pdngrid: activities out of [0,1]")
	}
	return nil
}

// TransientResult summarizes a transient noise run.
type TransientResult struct {
	// WorstDroopFrac is the largest instantaneous supply droop at the
	// probed cells over the whole event, as a fraction of Vdd.
	WorstDroopFrac float64
	WorstLayer     int
	// FinalDroopFrac is the settled (last-step) droop.
	FinalDroopFrac float64
	// Times and Droop hold the worst-layer droop waveform (fraction of
	// Vdd, positive = below nominal).
	Times []float64
	Droop []float64
}

// SolveTransient runs the synchronized load-step event and reports the
// first-droop noise. The probed cells are the centers of every core on
// every layer (the DC-worst locations for uniform activity).
func (p *PDN) SolveTransient(tc TransientConfig) (*TransientResult, error) {
	if err := tc.Validate(); err != nil {
		return nil, err
	}
	cfg := p.Cfg
	cores := cfg.Chip.NumCores()

	// Full-activity load map scaled over time between rest and step.
	pm, err := cfg.Chip.PowerMap(UniformActivities(1, cores, 1)[0])
	if err != nil {
		return nil, err
	}
	cells, err := p.raster.Distribute(p.fp.Blocks, pm)
	if err != nil {
		return nil, err
	}
	for i := range cells {
		cells[i] /= cfg.Params.Vdd
	}

	// Map activity to a load-current scale. Leakage persists at rest:
	// scale = leak + (1-leak)·activity with the chip's leakage fraction.
	leakFrac := cfg.Chip.Core.Leakage / cfg.Chip.Core.PeakPower()
	scaleAt := func(act float64) float64 { return leakFrac + (1-leakFrac)*act }
	rest := scaleAt(tc.RestActivity)
	step := scaleAt(tc.StepActivity)

	cellArea := p.raster.Die.W * p.raster.Die.H / float64(p.nCells)
	dyn := &dynSpec{
		cellAmps: cells,
		scale: func(t float64) float64 {
			if t > 0 {
				return step
			}
			return rest
		},
		decapPerCell: tc.DecapPerArea * cellArea,
		pkgL:         tc.PkgL,
	}
	asm := p.assemble(dyn)

	// Probes: the central cell of every core tile, on both meshes of
	// every layer.
	var probes []int
	var probeLayer []int
	for _, tile := range p.fp.Tiles {
		cx, cy := tile.Center()
		ix, iy := p.raster.CellOf(cx, cy)
		cell := p.raster.Index(ix, iy)
		for l := 0; l < cfg.Layers; l++ {
			probes = append(probes, asm.node(l, 0, cell), asm.node(l, 1, cell))
			probeLayer = append(probeLayer, l)
		}
	}

	tr, err := asm.net.Transient(circuit.TransientOptions{
		DT:     tc.DT,
		Steps:  tc.Steps,
		InitDC: true,
		Solve:  cfg.Solve,
	}, probes)
	if err != nil {
		return nil, fmt.Errorf("pdngrid: transient: %v", err)
	}

	res := &TransientResult{WorstDroopFrac: math.Inf(-1)}
	vdd := cfg.Params.Vdd
	var worstPair int
	for pr := 0; pr < len(probes)/2; pr++ {
		for k := range tr.Times {
			v := tr.V[2*pr][k] - tr.V[2*pr+1][k]
			droop := (vdd - v) / vdd
			if droop > res.WorstDroopFrac {
				res.WorstDroopFrac = droop
				res.WorstLayer = probeLayer[pr]
				worstPair = pr
			}
		}
	}
	res.Times = append(res.Times, tr.Times...)
	for k := range tr.Times {
		v := tr.V[2*worstPair][k] - tr.V[2*worstPair+1][k]
		res.Droop = append(res.Droop, (vdd-v)/vdd)
	}
	res.FinalDroopFrac = res.Droop[len(res.Droop)-1]
	return res, nil
}
