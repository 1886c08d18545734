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
// it integrates v = L·di/dt with a backward-Euler companion model.
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
	Solve  SolveOptions // solver for the DC init and the step matrix
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

// Transient integrates the network with backward Euler at fixed step DT,
// recording the given probe nodes. Static loads keep their DC values;
// transient loads follow their functions; capacitors and inductors use
// companion models. The step matrix is compiled and factored once on a
// prepared engine; every step then costs one pair of triangular solves
// (direct kinds) or one PCG solve warm-started from the previous step.
//
// Under Auto, systems up to amgThreshold nodes use DirectSparseND for both
// the DC operating point and the step matrix: one nested-dissection factor
// then serves every step. Larger systems resolve as Solve does.
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
	if so.Solver == Auto && nn <= amgThreshold {
		so.Solver = DirectSparseND
	}

	// Initial condition.
	v := make([]float64, nn)
	if opts.InitDC {
		dc, err := n.Solve(so)
		if err != nil {
			return nil, fmt.Errorf("%w: DC init: %v", ErrTransient, err)
		}
		copy(v, dc.v)
	}

	// The constant step matrix (conductances + C/dt + dt/L) and the
	// constant part of the right-hand side (rail injections, DC loads).
	eng, err := n.compile(so, dt, nil)
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

	// Inductor current state at the operating point: solve from branch
	// voltage is zero at a true DC point (ideal shorts), so the DC
	// current equals whatever keeps KCL; initialize from the DC solve by
	// treating the inductor as RIndDC in Solve()... The DC solve above
	// already included them as resistors of RIndDC, so recover i = v/R.
	iL := make([]float64, len(n.inductors))
	if opts.InitDC {
		for k, l := range n.inductors {
			va, vb := nodeV(v, l.a), nodeV(v, l.b)
			iL[k] = (va - vb) / RIndDC
		}
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
		for _, c := range n.caps {
			q := c.c / dt * (nodeV(v, c.a) - nodeV(v, c.b))
			if c.a != Ground {
				rhs[c.a] += q
			}
			if c.b != Ground {
				rhs[c.b] -= q
			}
		}
		for k, l := range n.inductors {
			// Companion: i_new = iL + dt/L (Va-Vb); the history current
			// iL enters as a source from a to b.
			if l.a != Ground {
				rhs[l.a] -= iL[k]
			}
			if l.b != Ground {
				rhs[l.b] += iL[k]
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
		for k, l := range n.inductors {
			iL[k] += dt / l.l * (nodeV(v, l.a) - nodeV(v, l.b))
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
