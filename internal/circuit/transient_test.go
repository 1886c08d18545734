package circuit

import (
	"math"
	"testing"

	"voltstack/internal/units"
)

func TestTransientRCStepResponse(t *testing.T) {
	// Series R-C driven by a 1 V rail: v(t) = 1 - exp(-t/RC).
	const r = 100.0
	const c = 1e-6
	n := New()
	out := n.Node()
	n.AddRailTie(out, r, 1.0)
	n.AddCapacitor(out, Ground, c)
	tau := r * c
	res, err := n.Transient(TransientOptions{DT: tau / 200, Steps: 1000}, []int{out})
	if err != nil {
		t.Fatal(err)
	}
	// InitDC=false: start from zero and charge up.
	for k, tm := range res.Times {
		want := 1 - math.Exp(-tm/tau)
		if math.Abs(res.V[0][k]-want) > 0.01 {
			t.Fatalf("t=%g: v=%g, want %g", tm, res.V[0][k], want)
		}
	}
}

func TestTransientRCDischarge(t *testing.T) {
	// Start from the DC point (1 V across the cap via a stiff tie), then
	// a transient load discharges it through the source resistance.
	const r = 10.0
	const c = 1e-6
	n := New()
	out := n.Node()
	n.AddRailTie(out, r, 1.0)
	n.AddCapacitor(out, Ground, c)
	// Constant 50 mA transient load switched on for t>0.
	n.AddTransientLoad(out, Ground, func(tm float64) float64 {
		if tm > 0 {
			return 0.05
		}
		return 0
	})
	tau := r * c
	res, err := n.Transient(TransientOptions{DT: tau / 100, Steps: 800, InitDC: true}, []int{out})
	if err != nil {
		t.Fatal(err)
	}
	if res.V[0][0] != 1.0 {
		t.Fatalf("DC init = %g, want 1.0", res.V[0][0])
	}
	// Final value: 1 - I*R = 0.5 V, approached exponentially.
	final := res.V[0][len(res.V[0])-1]
	if !units.ApproxEqual(final, 0.5, 0.01, 0.02) {
		t.Errorf("final = %g, want 0.5", final)
	}
	if res.MinV(0) < 0.49 {
		t.Errorf("undershoot to %g", res.MinV(0))
	}
}

func TestTransientRLRise(t *testing.T) {
	// Series R-L from a 1 V rail into a grounded resistor: current rises
	// with tau = L/Rtotal; node voltage across the load resistor follows.
	const rSrc = 1.0
	const rLoad = 1.0
	const l = 1e-6
	n := New()
	a := n.Node()
	out := n.Node()
	n.AddRailTie(a, rSrc, 1.0)
	n.AddInductor(a, out, l)
	n.AddResistor(out, Ground, rLoad)
	tau := l / (rSrc + rLoad)
	res, err := n.Transient(TransientOptions{DT: tau / 200, Steps: 1200}, []int{out})
	if err != nil {
		t.Fatal(err)
	}
	for k, tm := range res.Times {
		if k == 0 {
			continue
		}
		iWant := (1.0 / (rSrc + rLoad)) * (1 - math.Exp(-tm/tau))
		want := iWant * rLoad
		if math.Abs(res.V[0][k]-want) > 0.01 {
			t.Fatalf("t=%g: v=%g, want %g", tm, res.V[0][k], want)
		}
	}
}

func TestTransientRLCDroop(t *testing.T) {
	// The canonical PDN event: package L, pad R, on-die decap, load step.
	// The first droop must exceed the final IR level (inductive kick) and
	// ring toward the DC value.
	const rPkg = 5e-3 // enough damping to settle within the run
	const lPkg = 50e-12
	const cDie = 100e-9
	const iStep = 10.0
	n := New()
	board := n.Node()
	die := n.Node()
	n.AddRailTie(board, rPkg, 1.0)
	n.AddInductor(board, die, lPkg)
	n.AddCapacitor(die, Ground, cDie)
	n.AddResistor(die, Ground, 1e6) // leak keeps the DC point defined
	n.AddTransientLoad(die, Ground, func(tm float64) float64 {
		if tm > 0 {
			return iStep
		}
		return 0
	})
	dt := 10e-12
	res, err := n.Transient(TransientOptions{DT: dt, Steps: 12000, InitDC: true}, []int{die})
	if err != nil {
		t.Fatal(err)
	}
	finalDC := 1.0 - iStep*rPkg
	droop := res.MinV(0)
	if droop >= finalDC-1e-4 {
		t.Errorf("first droop %g should undershoot the DC level %g", droop, finalDC)
	}
	last := res.V[0][len(res.V[0])-1]
	if !units.ApproxEqual(last, finalDC, 5e-3, 1e-2) {
		t.Errorf("settled at %g, want %g", last, finalDC)
	}
}

func TestTransientMoreDecapLessDroop(t *testing.T) {
	run := func(c float64) float64 {
		n := New()
		board := n.Node()
		die := n.Node()
		n.AddRailTie(board, 1e-3, 1.0)
		n.AddInductor(board, die, 50e-12)
		n.AddCapacitor(die, Ground, c)
		n.AddResistor(die, Ground, 1e6)
		n.AddTransientLoad(die, Ground, func(tm float64) float64 {
			if tm > 0 {
				return 10
			}
			return 0
		})
		res, err := n.Transient(TransientOptions{DT: 10e-12, Steps: 3000, InitDC: true}, []int{die})
		if err != nil {
			t.Fatal(err)
		}
		return 1.0 - res.MinV(0)
	}
	small, big := run(20e-9), run(200e-9)
	if big >= small {
		t.Errorf("10x decap should shrink droop: %g -> %g", small, big)
	}
}

func TestTransientStaticNetworkIsFlat(t *testing.T) {
	// No dynamic elements: every step reproduces the DC solution.
	n := New()
	a := n.Node()
	n.AddRailTie(a, 1, 1.0)
	n.AddResistor(a, Ground, 1)
	n.AddCapacitor(a, Ground, 1e-9)
	res, err := n.Transient(TransientOptions{DT: 1e-9, Steps: 50, InitDC: true}, []int{a})
	if err != nil {
		t.Fatal(err)
	}
	for k := range res.Times {
		if !units.ApproxEqual(res.V[0][k], 0.5, 1e-9, 1e-9) {
			t.Fatalf("step %d: %g, want 0.5", k, res.V[0][k])
		}
	}
}

func TestTransientValidation(t *testing.T) {
	n := New()
	a := n.Node()
	n.AddRailTie(a, 1, 1)
	if _, err := n.Transient(TransientOptions{DT: 0, Steps: 10}, nil); err == nil {
		t.Error("zero DT not caught")
	}
	if _, err := n.Transient(TransientOptions{DT: 1e-9, Steps: 0}, nil); err == nil {
		t.Error("zero steps not caught")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad probe should panic")
		}
	}()
	_, _ = n.Transient(TransientOptions{DT: 1e-9, Steps: 1}, []int{99})
}

func TestTransientElementValidation(t *testing.T) {
	n := New()
	a := n.Node()
	cases := []func(){
		func() { n.AddCapacitor(a, a, 1e-9) },
		func() { n.AddCapacitor(a, Ground, 0) },
		func() { n.AddInductor(a, a, 1e-9) },
		func() { n.AddInductor(a, Ground, -1) },
		func() { n.AddTransientLoad(a, Ground, nil) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestTransientSolverAgreement(t *testing.T) {
	build := func() *Netlist {
		n := New()
		board := n.Node()
		die := n.Node()
		n.AddRailTie(board, 1e-3, 1.0)
		n.AddInductor(board, die, 20e-12)
		n.AddCapacitor(die, Ground, 50e-9)
		n.AddResistor(die, Ground, 1e5)
		n.AddTransientLoad(die, Ground, func(tm float64) float64 {
			if tm > 0 {
				return 5
			}
			return 0
		})
		return n
	}
	opts := TransientOptions{DT: 20e-12, Steps: 500, InitDC: true}
	ref, err := build().Transient(opts, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []SolverKind{Auto, DirectSparseND, PCGAMG} {
		o := opts
		o.Solve = SolveOptions{Solver: kind, Tol: 1e-12}
		r, err := build().Transient(o, []int{1})
		if err != nil {
			t.Fatalf("solver %d: %v", kind, err)
		}
		for k := range ref.Times {
			if !units.ApproxEqual(ref.V[0][k], r.V[0][k], 1e-6, 1e-5) {
				t.Fatalf("solver %d diverges from Auto at step %d: %g vs %g", kind, k, r.V[0][k], ref.V[0][k])
			}
		}
	}
}

// TestTransientDirectStepAllocs pins a direct-factor step at one
// allocation, the factor's permuted work vector: each step solves
// straight into the state vector. Doubling the step count adds one
// allocation per extra step, plus the amortized growth of the recorded
// waveform.
func TestTransientDirectStepAllocs(t *testing.T) {
	n := New()
	nodes := n.Nodes(64)
	n.AddRailTie(nodes[0], 1e-3, 1.0)
	for i, v := range nodes {
		n.AddCapacitor(v, Ground, 1e-9)
		if i > 0 {
			n.AddResistor(nodes[i-1], v, 0.1)
		}
	}
	n.AddTransientLoad(nodes[63], Ground, func(tm float64) float64 { return 0.1 })
	run := func(steps int) float64 {
		opts := TransientOptions{DT: 1e-11, Steps: steps, Solve: SolveOptions{Solver: DirectSparseND}}
		return testing.AllocsPerRun(3, func() {
			if _, err := n.Transient(opts, []int{nodes[63]}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const steps = 512
	if perStep := (run(2*steps) - run(steps)) / steps; perStep > 1.1 {
		t.Errorf("%.2f allocations per transient step, want 1", perStep)
	}
}

func TestDCSolveWithDynamicElements(t *testing.T) {
	// DC treats caps as open and inductors as shorts.
	n := New()
	a := n.Node()
	b := n.Node()
	n.AddRailTie(a, 1, 1.0)
	n.AddInductor(a, b, 1e-9)
	n.AddResistor(b, Ground, 1)
	n.AddCapacitor(b, Ground, 1e-9)
	s, err := n.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(s.V(b), 0.5, 1e-4, 1e-4) {
		t.Errorf("V(b) = %g, want ~0.5 (inductor ~ short)", s.V(b))
	}
}

// An empty network has nothing to integrate: the run still records every
// time point, with no probe waveforms.
func TestTransientEmptyNetlist(t *testing.T) {
	for _, kind := range []SolverKind{Auto, DirectSparseND, PCGAMG} {
		opts := TransientOptions{DT: 1e-9, Steps: 3, InitDC: true, Solve: SolveOptions{Solver: kind}}
		r, err := New().Transient(opts, nil)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if len(r.Times) != 4 || len(r.V) != 0 {
			t.Fatalf("kind %d: %d time points and %d waveforms, want 4 and 0", kind, len(r.Times), len(r.V))
		}
	}
}
