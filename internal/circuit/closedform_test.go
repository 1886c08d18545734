package circuit_test

import (
	"math"
	"testing"

	"voltstack/internal/circuit"
)

// Closed-form transient oracles: three circuits whose continuous
// responses are known exactly, written here from their differential
// equations alone. The trapezoidal rule is second order, so the largest
// error over a run must stay below a constant times DT², and halving DT
// must cut it about fourfold.
//
// Each circuit starts at rest and is driven by a current ramp k·t
// injected at its input node. The ramp is zero at t = 0, so the rest
// state is a consistent start, and the response is smooth from there on.
// (A source that steps at t = 0 would not show the order: the first step
// averages the source over [0, DT], which places the step DT/2 late.)

var allSolvers = []circuit.SolverKind{circuit.Auto, circuit.DirectSparseND, circuit.PCGAMG}

// rampResponse is the response of x' = (g(t) − x)/tau, x(0) = 0, to the
// ramp g(t) = s·t: s·(t − tau·(1 − e^(−t/tau))).
func rampResponse(s, tau, t float64) float64 {
	return s * (t - tau*(1-math.Exp(-t/tau)))
}

// closedFormCase is one circuit: build returns it with the ramp source
// and the probed node, exact the probe's continuous response, and
// scale·(dt/period)² bounds the largest error at step dt.
type closedFormCase struct {
	build  func() (*circuit.Netlist, int)
	exact  func(t float64) float64
	period float64 // time constant, or the ringing period
	window float64
	scale  float64
}

// maxError runs c at step dt over its window and returns the largest
// |v − exact| over every sample.
func (c closedFormCase) maxError(t *testing.T, kind circuit.SolverKind, dt float64) float64 {
	t.Helper()
	n, probe := c.build()
	res, err := n.Transient(circuit.TransientOptions{
		DT:    dt,
		Steps: int(math.Round(c.window / dt)),
		Solve: circuit.SolveOptions{Solver: kind, Tol: 1e-15},
	}, []int{probe})
	if err != nil {
		t.Fatalf("solver %d: %v", kind, err)
	}
	worst := 0.0
	for k, tm := range res.Times {
		worst = math.Max(worst, math.Abs(res.V[0][k]-c.exact(tm)))
	}
	return worst
}

// checkSecondOrder holds c's error at dt = period/stepsPerPeriod and at
// dt/2 to scale·(dt/period)², and their ratio to 3.5–4.5.
func checkSecondOrder(t *testing.T, c closedFormCase, stepsPerPeriod float64) {
	t.Helper()
	dt := c.period / stepsPerPeriod
	for _, kind := range allSolvers {
		coarse, fine := c.maxError(t, kind, dt), c.maxError(t, kind, dt/2)
		for _, e := range []struct {
			dt, err float64
		}{{dt, coarse}, {dt / 2, fine}} {
			if bound := c.scale * (e.dt / c.period) * (e.dt / c.period); e.err > bound {
				t.Errorf("solver %d, dt %.3g: max error %.3g, want <= %.3g", kind, e.dt, e.err, bound)
			}
		}
		if ratio := coarse / fine; ratio < 3.5 || ratio > 4.5 {
			t.Errorf("solver %d: halving dt cut the max error %.3g -> %.3g (%.2fx), want 3.5-4.5x",
				kind, coarse, fine, ratio)
		}
	}
}

func TestTransientRCChargeClosedForm(t *testing.T) {
	// A ramp k·t charges C, with R to a 0 V rail as the only discharge
	// path: C·v' = k·t − v/R, so v follows the ramp response toward
	// R·k·(t − tau).
	const r, c, k = 50.0, 2e-9, 1e6
	tau := r * c
	checkSecondOrder(t, closedFormCase{
		build: func() (*circuit.Netlist, int) {
			n := circuit.New()
			out := n.Node()
			n.AddRailTie(out, r, 0)
			n.AddCapacitor(out, circuit.Ground, c)
			n.AddTransientLoad(circuit.Ground, out, func(t float64) float64 { return k * t })
			return n, out
		},
		exact:  func(t float64) float64 { return rampResponse(r*k, tau, t) },
		period: tau,
		window: 6 * tau,
		// The trapezoidal rule's error on e^(−t/tau) peaks near
		// r·k·tau·(dt/tau)²/(12e) at t = tau.
		scale: 0.05 * r * k * tau,
	}, 10)
}

func TestTransientRLRiseClosedForm(t *testing.T) {
	// A ramp k·t enters node a, which has rSrc to a 0 V rail and L in
	// series with rLoad to ground: L·i' = rSrc·k·t − (rSrc + rLoad)·i. The
	// probed load voltage is rLoad·i.
	const rSrc, rLoad, l, k = 0.5, 1.5, 4e-9, 1e8
	rTot := rSrc + rLoad
	tau := l / rTot
	checkSecondOrder(t, closedFormCase{
		build: func() (*circuit.Netlist, int) {
			n := circuit.New()
			a := n.Node()
			out := n.Node()
			n.AddRailTie(a, rSrc, 0)
			n.AddInductor(a, out, l)
			n.AddResistor(out, circuit.Ground, rLoad)
			n.AddTransientLoad(circuit.Ground, a, func(t float64) float64 { return k * t })
			return n, out
		},
		exact:  func(t float64) float64 { return rLoad * rampResponse(rSrc*k/rTot, tau, t) },
		period: tau,
		window: 6 * tau,
		scale:  0.05 * rLoad * rSrc * k / rTot * tau,
	}, 10)
}

func TestTransientRLCRingClosedForm(t *testing.T) {
	// A ramp k·t enters node a, which has R to a 0 V rail and L in series
	// with C to ground. The capacitor voltage obeys
	//
	//	L·C·v'' + R·C·v' + v = R·k·t,
	//
	// so v = R·k·(t − R·C) plus a ring e^(−αt)·(A·cos ωt + B·sin ωt) with
	// α = R/2L, ω² = 1/LC − α², and A, B from v(0) = v'(0) = 0. At a
	// damping ratio of 0.1 the ring lasts the window: the L–C exchange
	// where a numerically damped integrator shows.
	const r, l, c, k = 0.2, 1e-9, 1e-9, 1e9
	alpha := r / (2 * l)
	omega := math.Sqrt(1/(l*c) - alpha*alpha)
	ringA := r * r * k * c
	ringB := (alpha*ringA - r*k) / omega
	period := 2 * math.Pi / omega
	checkSecondOrder(t, closedFormCase{
		build: func() (*circuit.Netlist, int) {
			n := circuit.New()
			a := n.Node()
			out := n.Node()
			n.AddRailTie(a, r, 0)
			n.AddInductor(a, out, l)
			n.AddCapacitor(out, circuit.Ground, c)
			n.AddTransientLoad(circuit.Ground, a, func(t float64) float64 { return k * t })
			return n, out
		},
		exact: func(t float64) float64 {
			ring := math.Exp(-alpha*t) * (ringA*math.Cos(omega*t) + ringB*math.Sin(omega*t))
			return r*k*(t-r*c) + ring
		},
		period: period,
		window: 5 * period,
		// The rule keeps the ring's amplitude and lags its phase by about
		// ω·t·(ω·dt)²/12, which peaks near t = 1/α.
		scale: 20 * math.Hypot(ringA, ringB),
	}, 40)
}
