// Package spice is a switch-level transient circuit simulator for the 2:1
// push-pull switched-capacitor cell of the paper's Fig. 1. It plays the
// role Cadence Spectre plays in the paper: an independent, physics-level
// reference against which the compact (Seeman) model of package sc is
// validated (the "Simulation" curves of Fig. 3).
//
// The cell is simulated with backward-Euler integration of the switched RC
// network: two fly capacitors that exchange positions between the two clock
// phases, explicit bottom-plate parasitic capacitors (whose charging loss
// is therefore captured physically), switch on-resistances, an output
// decoupling capacitor, and a DC load current. Gate-drive loss is added
// analytically. The simulator runs until periodic steady state and reports
// cycle-averaged output voltage, input current and efficiency.
package spice

import (
	"fmt"
	"math"
	"time"

	"voltstack/internal/sc"
	"voltstack/internal/sparse"
	"voltstack/internal/telemetry"
)

// Switch-level simulator instrumentation: backward-Euler step counts and
// the periods-to-PSS distribution show how hard each operating point works
// the reference simulator.
var (
	mSims      = telemetry.NewCounter("spice_simulations_total")
	mBESteps   = telemetry.NewCounter("spice_be_steps_total")
	mPSSCycles = telemetry.NewCounter("spice_pss_cycles_total")
	mCycleHist = telemetry.NewHistogram("spice_pss_cycles")
	mSimHist   = telemetry.NewHistogram("spice_sim_seconds")
)

// Cell describes the push-pull 2:1 cell to simulate.
type Cell struct {
	Vin          float64 // input rail voltage (V)
	CFly         float64 // per-capacitor fly capacitance (F); the cell has two
	KBottomPlate float64 // bottom-plate parasitic as a fraction of CFly
	RSwitch      float64 // per-switch on-resistance (Ω)
	FSw          float64 // switching frequency (Hz)
	CLoad        float64 // output decoupling capacitance (F)
	QGate        float64 // total gate charge per cycle (C), analytic loss
	VGate        float64 // gate drive voltage (V)
}

// CellFromParams maps a compact-model parameter set onto a simulatable
// cell: the compact Ctot splits evenly across the two fly capacitors, and
// the total switch conductance Gtot across the 8 switches (4 conducting
// per phase, 2 in series per capacitor branch).
func CellFromParams(p sc.Params, vin float64) Cell {
	perSwitchG := p.Gtot / 8
	return Cell{
		Vin:          vin,
		CFly:         p.Ctot / 2,
		KBottomPlate: p.KBottomPlate,
		RSwitch:      1 / perSwitchG,
		FSw:          p.FSw,
		CLoad:        p.Ctot / 4,
		QGate:        p.QGate,
		VGate:        p.VGate,
	}
}

// SimOptions controls integration accuracy and the steady-state search.
type SimOptions struct {
	StepsPerPhase int     // BE steps per clock phase (default 64)
	MaxCycles     int     // cycle budget for periodic steady state (default 4000)
	Tol           float64 // cycle-to-cycle average-output tolerance ×Vin (default 1e-7)
}

func (o SimOptions) withDefaults() SimOptions {
	if o.StepsPerPhase == 0 {
		o.StepsPerPhase = 64
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 4000
	}
	if o.Tol == 0 {
		o.Tol = 1e-7
	}
	return o
}

// Result reports cycle-averaged steady-state measurements.
type Result struct {
	VOutAvg    float64 // average output voltage over the final cycle (V)
	VOutRipple float64 // peak-to-peak output ripple (V)
	IInAvg     float64 // average current drawn from the input rail (A)
	POut       float64 // average power delivered to the load (W)
	PIn        float64 // average input power incl. analytic gate loss (W)
	Efficiency float64 // POut / PIn
	Cycles     int     // cycles simulated to reach steady state
}

// Node indices for the 6-node cell network.
const (
	nVin = iota
	nVmid
	nC1T
	nC1B
	nC2T
	nC2B
	numNodes
)

// rSource is the (small) source impedance used to make the ideal input
// rail stampable as a conductance; its drop is negligible but its current
// is the input-current measurement.
const rSource = 1e-4

// Simulate runs the cell with a constant load current iLoad drawn from the
// output node and returns steady-state measurements.
func (c Cell) Simulate(iLoad float64, opts SimOptions) (Result, error) {
	if c.Vin <= 0 || c.CFly <= 0 || c.RSwitch <= 0 || c.FSw <= 0 {
		return Result{}, fmt.Errorf("spice: invalid cell %+v", c)
	}
	opts = opts.withDefaults()
	tSim := time.Now()
	period := 1 / c.FSw
	dt := period / float64(2*opts.StepsPerPhase)

	// Phase A: C1 on top (vin—vmid), C2 on bottom (vmid—gnd).
	// Phase B: C2 on top, C1 on bottom.
	switchesA := [][2]int{{nVin, nC1T}, {nC1B, nVmid}, {nVmid, nC2T}, {nC2B, -1}}
	switchesB := [][2]int{{nVin, nC2T}, {nC2B, nVmid}, {nVmid, nC1T}, {nC1B, -1}}

	caps := []struct {
		a, b int // b == -1 means ground
		c    float64
	}{
		{nC1T, nC1B, c.CFly},
		{nC2T, nC2B, c.CFly},
		{nC1B, -1, c.KBottomPlate * c.CFly},
		{nC2B, -1, c.KBottomPlate * c.CFly},
		{nVmid, -1, c.CLoad},
	}

	buildPhase := func(switches [][2]int) (*sparse.DenseLU, error) {
		m := sparse.NewDense(numNodes)
		stamp := func(a, b int, g float64) {
			if a >= 0 {
				m.Add(a, a, g)
			}
			if b >= 0 {
				m.Add(b, b, g)
			}
			if a >= 0 && b >= 0 {
				m.Add(a, b, -g)
				m.Add(b, a, -g)
			}
		}
		stamp(nVin, -1, 1/rSource)
		gs := 1 / c.RSwitch
		for _, sw := range switches {
			stamp(sw[0], sw[1], gs)
		}
		for _, cp := range caps {
			stamp(cp.a, cp.b, cp.c/dt)
		}
		return m.LU()
	}

	luA, err := buildPhase(switchesA)
	if err != nil {
		return Result{}, fmt.Errorf("spice: phase A matrix: %v", err)
	}
	luB, err := buildPhase(switchesB)
	if err != nil {
		return Result{}, fmt.Errorf("spice: phase B matrix: %v", err)
	}

	// Initial condition: ideal mid-rail operating point.
	vmid0 := c.Vin / 2
	v := make([]float64, numNodes)
	v[nVin] = c.Vin
	v[nVmid] = vmid0
	v[nC1T] = c.Vin
	v[nC1B] = vmid0
	v[nC2T] = vmid0
	v[nC2B] = 0

	rhs := make([]float64, numNodes)
	step := func(lu *sparse.DenseLU) {
		for i := range rhs {
			rhs[i] = 0
		}
		rhs[nVin] += c.Vin / rSource
		rhs[nVmid] -= iLoad
		for _, cp := range caps {
			dv := v[cp.a]
			if cp.b >= 0 {
				dv -= v[cp.b]
			}
			q := cp.c / dt * dv
			rhs[cp.a] += q
			if cp.b >= 0 {
				rhs[cp.b] -= q
			}
		}
		copy(v, lu.Solve(rhs))
	}

	var sumV, sumI, minV, maxV float64
	prevAvg := math.Inf(1)
	cycles := 0
	for cycles = 1; cycles <= opts.MaxCycles; cycles++ {
		sumV, sumI = 0, 0
		minV, maxV = math.Inf(1), math.Inf(-1)
		for half := 0; half < 2; half++ {
			lu := luA
			if half == 1 {
				lu = luB
			}
			for s := 0; s < opts.StepsPerPhase; s++ {
				step(lu)
				sumV += v[nVmid]
				sumI += (c.Vin - v[nVin]) / rSource
				if v[nVmid] < minV {
					minV = v[nVmid]
				}
				if v[nVmid] > maxV {
					maxV = v[nVmid]
				}
			}
		}
		avg := sumV / float64(2*opts.StepsPerPhase)
		if math.Abs(avg-prevAvg) < opts.Tol*c.Vin {
			prevAvg = avg
			break
		}
		prevAvg = avg
	}
	if cycles > opts.MaxCycles {
		return Result{}, fmt.Errorf("spice: no periodic steady state after %d cycles", opts.MaxCycles)
	}
	mSims.Add(1)
	mPSSCycles.Add(int64(cycles))
	mBESteps.Add(int64(cycles) * int64(2*opts.StepsPerPhase))
	mCycleHist.Observe(float64(cycles))
	mSimHist.Since(tSim)

	nSteps := float64(2 * opts.StepsPerPhase)
	vAvg := sumV / nSteps
	iAvg := sumI / nSteps
	pOut := vAvg * iLoad
	pGate := c.QGate * c.VGate * c.FSw
	pIn := c.Vin*iAvg + pGate
	eff := 0.0
	if pIn > 0 {
		eff = pOut / pIn
	}
	return Result{
		VOutAvg:    vAvg,
		VOutRipple: maxV - minV,
		IInAvg:     iAvg,
		POut:       pOut,
		PIn:        pIn,
		Efficiency: eff,
		Cycles:     cycles,
	}, nil
}

// OutputImpedance estimates the cell's effective output impedance by
// simulating two load points and differencing the average output voltages:
// R = (V(i1) - V(i2)) / (i2 - i1).
func (c Cell) OutputImpedance(i1, i2 float64, opts SimOptions) (float64, error) {
	if i1 == i2 {
		return 0, fmt.Errorf("spice: OutputImpedance needs distinct load points")
	}
	r1, err := c.Simulate(i1, opts)
	if err != nil {
		return 0, err
	}
	r2, err := c.Simulate(i2, opts)
	if err != nil {
		return 0, err
	}
	return (r1.VOutAvg - r2.VOutAvg) / (i2 - i1), nil
}
