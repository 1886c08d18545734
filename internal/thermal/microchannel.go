package thermal

import (
	"fmt"

	"voltstack/internal/circuit"
)

// Micro-channel (volumetric) cooling: the paper's introduction argues that
// once inter-layer micro-channel cooling removes the thermal ceiling,
// power delivery becomes the binding constraint of many-layer 3D-ICs.
// This model adds a coolant path to EVERY layer: each cell couples through
// a convection resistance into its layer's coolant, whose temperature
// rises downstream with the absorbed heat (caloric resistance).

// Microchannel describes an inter-layer liquid cooling configuration.
type Microchannel struct {
	// CellConvR is the convection resistance from a mesh cell into its
	// layer's coolant, normalized per unit area (K·m²/W).
	CellConvR float64
	// CaloricR is the lumped caloric resistance of one layer's coolant
	// loop (K/W): the mean coolant temperature rise per watt absorbed,
	// set by the volumetric flow rate (R = 1/(2·ρ·c·Q) for uniform heating).
	CaloricR float64
	// InletC is the coolant inlet temperature (°C).
	InletC float64
}

// DefaultMicrochannel returns a configuration representative of the
// integrated micro-channel work the paper cites: ~0.1 cm²K/W convective
// resistance and a per-layer flow good for ~0.1 K/W caloric rise.
func DefaultMicrochannel() Microchannel {
	return Microchannel{
		CellConvR: 0.1 * 1e-4, // 0.1 K·cm²/W
		CaloricR:  0.1,
		InletC:    30,
	}
}

// Validate checks the configuration.
func (m Microchannel) Validate() error {
	if m.CellConvR <= 0 || m.CaloricR <= 0 {
		return fmt.Errorf("thermal: invalid microchannel %+v", m)
	}
	return nil
}

// SolveMicrochannel computes the steady-state temperatures of a stack
// cooled volumetrically: the conduction network of Solve plus a coolant
// node per layer (caloric resistance to the inlet) reached from every
// cell through the convection resistance. The air-cooled top-side path of
// cfg remains in place (it helps a little).
func SolveMicrochannel(cfg Config, mc Microchannel, powerMaps [][]float64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	nCells := cfg.Nx * cfg.Ny
	if len(powerMaps) != cfg.Layers {
		return nil, fmt.Errorf("thermal: need %d power maps, got %d", cfg.Layers, len(powerMaps))
	}
	for l, pm := range powerMaps {
		if len(pm) != nCells {
			return nil, fmt.Errorf("thermal: layer %d power map has %d cells, want %d", l, len(pm), nCells)
		}
	}

	cellW := cfg.Die.W / float64(cfg.Nx)
	cellH := cfg.Die.H / float64(cfg.Ny)
	cellArea := cellW * cellH

	gLatX := cfg.Mat.SiK * cfg.Mat.SiThick * cellH / cellW
	gLatY := cfg.Mat.SiK * cfg.Mat.SiThick * cellW / cellH
	rVert := cfg.Mat.SiThick/cfg.Mat.SiK + cfg.Mat.BondThick/cfg.Mat.BondK
	gVert := cellArea / rVert
	gTIM := cellArea / (cfg.Mat.TIMThick / cfg.Mat.TIMK)
	gConv := cellArea / mc.CellConvR

	net := circuit.New()
	net.Nodes(cfg.Layers * nCells)
	node := func(layer, cell int) int { return layer*nCells + cell }
	sink := net.Node()
	coolant := make([]int, cfg.Layers)
	for l := range coolant {
		coolant[l] = net.Node()
	}

	// The temperature reference (circuit ground) is the air ambient; the
	// coolant inlet sits at a (possibly different) offset, applied as a
	// rail behind the caloric resistance.
	inletOffset := mc.InletC - cfg.AmbientC

	for l := 0; l < cfg.Layers; l++ {
		for iy := 0; iy < cfg.Ny; iy++ {
			for ix := 0; ix < cfg.Nx; ix++ {
				c := iy*cfg.Nx + ix
				if ix+1 < cfg.Nx {
					net.AddResistor(node(l, c), node(l, c+1), 1/gLatX)
				}
				if iy+1 < cfg.Ny {
					net.AddResistor(node(l, c), node(l, c+cfg.Nx), 1/gLatY)
				}
				if l+1 < cfg.Layers {
					net.AddResistor(node(l, c), node(l+1, c), 1/gVert)
				}
				net.AddResistor(node(l, c), coolant[l], 1/gConv)
			}
		}
		net.AddRailTie(coolant[l], mc.CaloricR, inletOffset)
	}
	top := cfg.Layers - 1
	for c := 0; c < nCells; c++ {
		net.AddResistor(node(top, c), sink, 1/gTIM)
	}
	net.AddRailTie(sink, cfg.SinkR, 0)

	for l, pm := range powerMaps {
		for c, w := range pm {
			if w < 0 {
				return nil, fmt.Errorf("thermal: negative power")
			}
			if w > 0 {
				net.AddLoad(circuit.Ground, node(l, c), w)
			}
		}
	}

	sol, err := net.Solve(cfg.Solve)
	if err != nil {
		return nil, fmt.Errorf("thermal: %v", err)
	}
	res := &Result{
		TempsC: make([][]float64, cfg.Layers),
		MaxC:   -1e300,
		SinkC:  cfg.AmbientC + sol.V(sink),
	}
	for l := 0; l < cfg.Layers; l++ {
		ts := make([]float64, nCells)
		for c := 0; c < nCells; c++ {
			t := cfg.AmbientC + sol.V(node(l, c))
			ts[c] = t
			if t > res.MaxC {
				res.MaxC = t
				res.MaxLayer = l
			}
		}
		res.TempsC[l] = ts
	}
	return res, nil
}
