package circuit

import (
	"errors"
	"fmt"
	"math"

	"voltstack/internal/sparse"
)

// CapID identifies a capacitor.
type CapID int

// IndID identifies an inductor.
type IndID int

// TLoadID identifies a time-varying load.
type TLoadID int

type capacitor struct {
	a, b int
	c    float64
}

type inductor struct {
	a, b int
	l    float64
}

// tload is a load current source whose magnitude follows fn(t).
type tload struct {
	from, to int
	fn       func(t float64) float64
}

// AddCapacitor connects a capacitor of the given value between a and b.
// Capacitors only participate in Transient analysis; the DC Solve ignores
// them (open circuit), matching their steady-state behavior.
func (n *Netlist) AddCapacitor(a, b int, farads float64) CapID {
	n.checkNode(a)
	n.checkNode(b)
	if farads <= 0 {
		panic(fmt.Sprintf("circuit: capacitance must be positive, got %g", farads))
	}
	if a == b {
		panic("circuit: capacitor endpoints must differ")
	}
	n.caps = append(n.caps, capacitor{a, b, farads})
	return CapID(len(n.caps) - 1)
}

// AddInductor connects an inductor between a and b. In the DC Solve it
// behaves as a short with a small resistance (its series companion at
// dt→∞ is ill-defined, so DC treats it as RIndDC); in Transient analysis
// it integrates v = L·di/dt with a trapezoidal companion model.
func (n *Netlist) AddInductor(a, b int, henries float64) IndID {
	n.checkNode(a)
	n.checkNode(b)
	if henries <= 0 {
		panic(fmt.Sprintf("circuit: inductance must be positive, got %g", henries))
	}
	if a == b {
		panic("circuit: inductor endpoints must differ")
	}
	n.inductors = append(n.inductors, inductor{a, b, henries})
	return IndID(len(n.inductors) - 1)
}

// RIndDC is the resistance inductors present to the DC operating-point
// solve (they are ideally shorts at DC).
const RIndDC = 1e-6

// AddTransientLoad adds a load whose current is fn(t) amperes, drawn from
// `from` and returned into `to`. During the DC operating-point solve the
// load takes its fn(0) value.
func (n *Netlist) AddTransientLoad(from, to int, fn func(t float64) float64) TLoadID {
	n.checkNode(from)
	n.checkNode(to)
	if fn == nil {
		panic("circuit: nil transient load function")
	}
	n.tloads = append(n.tloads, tload{from, to, fn})
	return TLoadID(len(n.tloads) - 1)
}

// TransientOptions configures a transient run.
type TransientOptions struct {
	DT    float64 // time step (s)
	Steps int     // number of steps after t=0
	// InitDC starts from the DC operating point at t=0 loads (default).
	// When false the run starts from all-zero node voltages.
	InitDC bool
	Solve  SolveOptions // solver for the DC init and the step matrix (RHS is set to Steps)
}

// TransientResult holds probed waveforms.
type TransientResult struct {
	Times  []float64
	Probes []int       // the probed node ids
	V      [][]float64 // V[p][k]: probe p at time step k (includes t=0)
}

// MinV returns the minimum of probe p over the run.
func (r *TransientResult) MinV(p int) float64 {
	m := math.Inf(1)
	for _, v := range r.V[p] {
		if v < m {
			m = v
		}
	}
	return m
}

// ErrTransient wraps transient-analysis failures.
var ErrTransient = errors.New("circuit: transient analysis failed")

// Transient integrates the network with the trapezoidal rule at fixed
// step DT, recording the given probe nodes. Static loads keep their DC
// values; transient loads follow their functions. Each capacitor and
// inductor becomes its trapezoidal companion: a conductance (2C/dt or
// dt/2L) beside a history current carried from the previous step. The
// step matrix, which is Matrix(DT/2), is compiled and factored once on a
// prepared engine; every step then costs one pair of triangular solves
// (direct kind) or one PCG solve warm-started from the previous step.
//
// Every step solves against the one step-matrix engine, so Transient
// passes Steps as Solve.RHS (overriding the caller's). The DC operating
// point resolves with the same RHS, so under Auto both pick the same kind.
func (n *Netlist) Transient(opts TransientOptions, probes []int) (*TransientResult, error) {
	if opts.DT <= 0 || opts.Steps <= 0 {
		return nil, fmt.Errorf("%w: need positive DT and Steps", ErrTransient)
	}
	for _, p := range probes {
		n.checkNode(p)
	}
	if err := n.CheckConnectivity(); err != nil {
		return nil, err
	}
	nn := n.numNodes
	dt := opts.DT
	so := opts.Solve
	so.RHS = opts.Steps

	// Initial condition.
	v := make([]float64, nn)
	if opts.InitDC {
		dc, err := n.Solve(so)
		if err != nil {
			return nil, fmt.Errorf("%w: DC init: %v", ErrTransient, err)
		}
		copy(v, dc.v)
	}

	// The constant step matrix (conductances + 2C/dt + dt/2L) and the
	// constant part of the right-hand side (rail injections, DC loads).
	eng, err := n.compile(so, dt/2, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTransient, err)
	}
	var ws *sparse.PCGWorkspace // one workspace for the serial PCG steps
	if eng.prec != nil {
		ws = sparse.NewPCGWorkspace(nn)
	}
	rhsBase := make([]float64, nn)
	for _, t := range n.ties {
		rhsBase[t.node] += t.g * t.vRail
	}
	for _, l := range n.loads {
		if l.from != Ground {
			rhsBase[l.from] -= l.i
		}
		if l.to != Ground {
			rhsBase[l.to] += l.i
		}
	}

	// History currents. A capacitor's hC = 2C/dt·v_n + i_C,n enters node a
	// (and leaves b); an inductor's hL = i_L,n + dt/2L·v_n flows from a to
	// b. At t=0 no capacitor current flows, and each inductor carries
	// v/RIndDC, its current in the DC init (v is zero on a zero start).
	hC := make([]float64, len(n.caps))
	for k, c := range n.caps {
		hC[k] = 2 * c.c / dt * (nodeV(v, c.a) - nodeV(v, c.b))
	}
	hL := make([]float64, len(n.inductors))
	for k, l := range n.inductors {
		vab := nodeV(v, l.a) - nodeV(v, l.b)
		hL[k] = vab/RIndDC + dt/(2*l.l)*vab
	}

	res := &TransientResult{Probes: append([]int(nil), probes...)}
	record := func(t float64) {
		res.Times = append(res.Times, t)
		if res.V == nil {
			res.V = make([][]float64, len(probes))
		}
		for i, p := range probes {
			res.V[i] = append(res.V[i], nodeV(v, p))
		}
	}
	record(0)

	rhs := make([]float64, nn)
	for step := 1; step <= opts.Steps; step++ {
		t := float64(step) * dt
		copy(rhs, rhsBase)
		for _, tl := range n.tloads {
			i := tl.fn(t)
			if tl.from != Ground {
				rhs[tl.from] -= i
			}
			if tl.to != Ground {
				rhs[tl.to] += i
			}
		}
		for k, c := range n.caps {
			if c.a != Ground {
				rhs[c.a] += hC[k]
			}
			if c.b != Ground {
				rhs[c.b] -= hC[k]
			}
		}
		for k, l := range n.inductors {
			if l.a != Ground {
				rhs[l.a] -= hL[k]
			}
			if l.b != Ground {
				rhs[l.b] += hL[k]
			}
		}

		// A direct factor solves straight into v; PCG warm-starts from v.
		if eng.ndF != nil {
			eng.ndF.SolveTo(v, rhs)
		} else if nn > 0 {
			x, _, err := eng.solve(nil, rhs, v, ws)
			if err != nil {
				return nil, fmt.Errorf("%w: step %d: %v", ErrTransient, step, err)
			}
			copy(v, x)
		}
		// With g the companion conductance, the new element current is
		// g·v_n+1 − hC (capacitor) or g·v_n+1 + hL (inductor), so the next
		// history term is 2g·v_n+1 − hC or 2g·v_n+1 + hL.
		for k, c := range n.caps {
			hC[k] = 4*c.c/dt*(nodeV(v, c.a)-nodeV(v, c.b)) - hC[k]
		}
		for k, l := range n.inductors {
			hL[k] += dt / l.l * (nodeV(v, l.a) - nodeV(v, l.b))
		}
		record(t)
	}
	return res, nil
}

func nodeV(v []float64, node int) float64 {
	if node == Ground {
		return 0
	}
	return v[node]
}
