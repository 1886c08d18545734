// Prepared-solve engine: every circuit solve runs here. Netlist.Compile
// checks connectivity, assembles the CSR matrix and builds the factor or
// preconditioner (fill-reducing ordering, symbolic and numeric phases
// together). After that the engine never changes: each solve stamps the
// right-hand side from the load currents it is given and solves against
// the stored factor. Netlist.Solve is Compile plus one solve with the
// netlist's own load currents, and Transient compiles its trapezoidal
// step matrix the same way.
//
// Determinism contract: a solve on a shared engine is bit-identical to a
// cold engine compiled from the same netlist and options, whatever other
// solves run before or beside it, because both solve against the same
// matrix and factor and Solve always starts PCG from zero.
package circuit

import (
	"errors"
	"fmt"

	"voltstack/internal/sparse"
	"voltstack/internal/telemetry"
)

// Prepared-engine instrumentation: compiles should be rare (once per
// network) and solves frequent.
var (
	mPrepCompiles = telemetry.NewCounter("circuit_prepared_compiles_total")
	mPrepSolves   = telemetry.NewCounter("circuit_prepared_solves_total")
)

// ErrNetlistChanged is returned by a Prepared engine's solves when its
// netlist has gained nodes or elements since Compile; compile it again.
var ErrNetlistChanged = errors.New("circuit: netlist gained nodes or elements after Compile")

// Prepared is a compiled solve plan for one Netlist: its matrix and its
// factor or preconditioner, both fixed at Compile. Load currents are an
// argument of each solve, not engine state.
//
// A Prepared is safe for concurrent use: solves only read it.
type Prepared struct {
	net     *Netlist
	kind    SolverKind
	tol     float64
	maxIter int

	// Topology at Compile, checked on every solve.
	nNodes int
	counts [7]int

	a *sparse.CSR
	// ndF is the factor of the direct kind, prec the AMG preconditioner of
	// the iterative one.
	ndF  *sparse.SparseChol
	prec *sparse.AMGPrec
}

// Compile checks the netlist's connectivity, assembles its DC conductance
// matrix and builds the factor or preconditioner into a Prepared engine
// for repeated solves. sp, if non-nil, parents a "factor" trace span
// (with an "amg-build" child for the AMG kind); tracing adds no work when
// sp is nil.
func (n *Netlist) Compile(opts SolveOptions, sp *telemetry.Span) (*Prepared, error) {
	return n.compile(opts, 0, sp)
}

// Voltages exposes the solved node-voltage vector, indexed by node id
// (ground is not included — it is identically 0). Treat it as read-only:
// it backs the Solution's V queries.
func (s *Solution) Voltages() []float64 { return s.v }

// compile assembles Matrix(dt), the DC matrix for dt == 0, and factors
// it. Transient passes half its step, so the factor is the trapezoidal
// step matrix.
func (n *Netlist) compile(opts SolveOptions, dt float64, sp *telemetry.Span) (*Prepared, error) {
	mPrepCompiles.Add(1)
	nn := n.numNodes
	p := &Prepared{net: n, nNodes: nn, counts: n.elementCounts()}
	p.kind, p.tol, p.maxIter = opts.resolve(nn)
	if nn == 0 {
		return p, nil
	}
	if err := n.CheckConnectivity(); err != nil {
		return nil, err
	}
	p.a = n.Matrix(dt)
	if err := p.factor(sp); err != nil {
		return nil, err
	}
	return p, nil
}

func (n *Netlist) elementCounts() [7]int {
	return [7]int{
		len(n.resistors), len(n.ties), len(n.loads), len(n.converters),
		len(n.caps), len(n.inductors), len(n.tloads),
	}
}

// checkTopology returns ErrNetlistChanged if the netlist has gained nodes
// or elements since Compile.
func (p *Prepared) checkTopology() error {
	if p.net.numNodes != p.nNodes || p.net.elementCounts() != p.counts {
		return ErrNetlistChanged
	}
	return nil
}

// Solve solves the network with loads[k] amperes drawn by the load
// LoadID(k); the result is bit-identical to a cold engine's. The returned
// Solution keeps loads for its power queries, so the caller must not
// modify it afterwards. sp, if non-nil, parents a "pcg" trace span for
// AMG-PCG; tracing adds no work when sp is nil, and the result is
// identical either way.
func (p *Prepared) Solve(loads []float64, sp *telemetry.Span) (*Solution, error) {
	mPrepSolves.Add(1)
	if err := p.checkTopology(); err != nil {
		return nil, err
	}
	n := p.net
	if len(loads) != len(n.loads) {
		return nil, fmt.Errorf("circuit: %d load currents for %d loads", len(loads), len(n.loads))
	}
	if p.nNodes == 0 {
		return &Solution{net: n, loads: loads}, nil
	}
	rhs := make([]float64, p.nNodes)
	n.stampRHS(rhs, loads)
	x, res, err := p.solve(sp, rhs, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Solution{
		net:        n,
		loads:      loads,
		v:          x,
		Iterations: res.Iterations,
		Residual:   res.Residual,
		Health:     res.Health,
	}, nil
}

// solve returns x with A·x = b. AMG-PCG starts from x0 (nil: zero) and
// runs on scratch ws (nil: allocated per call); the direct factor ignores
// both.
func (p *Prepared) solve(sp *telemetry.Span, b, x0 []float64, ws *sparse.PCGWorkspace) ([]float64, sparse.CGResult, error) {
	if p.ndF != nil {
		return p.ndF.Solve(b), sparse.CGResult{}, nil
	}
	spPCG := sp.Start("pcg")
	defer spPCG.End()
	return sparse.PCG(p.a, b, x0, p.prec, p.tol, p.maxIter, ws)
}

// factor builds the factor (direct kind) or the AMG preconditioner
// inside a "factor" child span of sp (nil-safe). A build failure on a
// non-positive-definite matrix returns ErrFloating.
func (p *Prepared) factor(sp *telemetry.Span) error {
	spF := sp.Start("factor")
	defer spF.End()
	switch p.kind {
	case DirectSparseND:
		f, err := sparse.FactorSparse(p.a, sparse.OrderND)
		if err != nil {
			return wrapSPD(err)
		}
		p.ndF = f
	case PCGAMG:
		spA := spF.Start("amg-build")
		mg, err := sparse.NewAMG(p.a)
		spA.End()
		if err != nil {
			return wrapSPD(err)
		}
		p.prec = mg
	default:
		return fmt.Errorf("circuit: unknown solver kind %d", p.kind)
	}
	return nil
}
