// Prepared-solve engine: every circuit solve runs here. Netlist.Compile
// checks connectivity and assembles the CSR matrix; the first solve builds
// the factor or preconditioner (fill-reducing ordering, symbolic and
// numeric phases together). After that the matrix and factor never
// change: a later solve restamps only the right-hand side from the
// netlist's current load currents and reuses the factor and PCG scratch.
// Netlist.Solve is Compile plus one solve, and Transient compiles its
// backward-Euler step matrix the same way.
//
// Determinism contract: a reused engine's Solve is bit-identical to a cold
// engine compiled from the same netlist and options, because both solve
// against the same matrix and factor and Solve always starts PCG from zero.
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

// Prepared is a compiled solve plan for one Netlist. Its matrix is fixed
// at Compile and its factor or preconditioner at the first solve; between
// solves only load currents may change (SetLoad).
//
// A Prepared is not safe for concurrent use.
type Prepared struct {
	net     *Netlist
	kind    SolverKind
	tol     float64
	maxIter int

	// Topology at Compile, checked on every solve.
	nNodes int
	counts [7]int

	a   *sparse.CSR
	rhs []float64

	// Built by the first solve, then read-only: ndF is the factor of the
	// direct kind, prec the preconditioner of the iterative kinds.
	ndF  *sparse.SparseChol
	prec sparse.Preconditioner

	ws  *sparse.PCGWorkspace
	bws *sparse.PCGBatchWorkspace // lazily built by SolveBatch
}

// Compile checks the netlist's connectivity and assembles its DC
// conductance matrix into a Prepared engine for repeated solves.
func (n *Netlist) Compile(opts SolveOptions) (*Prepared, error) {
	return n.compile(opts, 0)
}

// Voltages exposes the solved node-voltage vector, indexed by node id
// (ground is not included — it is identically 0). Treat it as read-only:
// it backs the Solution's V queries.
func (s *Solution) Voltages() []float64 { return s.v }

// compile assembles the DC matrix (dt == 0) or the backward-Euler step
// matrix (dt > 0).
func (n *Netlist) compile(opts SolveOptions, dt float64) (*Prepared, error) {
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
	b := sparse.NewBuilder(nn)
	n.stampMatrix(b, dt)
	p.a = b.ToCSR()
	p.rhs = make([]float64, nn)
	switch p.kind {
	case DirectSparseND:
	case PCGIC0, PCGJacobi, PCGAMG:
		p.ws = sparse.NewPCGWorkspace(nn)
	default:
		return nil, fmt.Errorf("circuit: unknown solver kind %d", p.kind)
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

// SetLoad changes the identified load's current draw (RHS-only).
func (p *Prepared) SetLoad(id LoadID, amps float64) {
	p.net.loads[id].i = amps
}

// Solve solves the network with the current load currents; the result is
// bit-identical to a cold engine's. sp, if non-nil, parents trace spans for
// the factor (first solve only, including an AMG hierarchy build) and PCG
// phases; tracing adds no work when sp is nil, and the result is identical
// either way.
func (p *Prepared) Solve(sp *telemetry.Span) (*Solution, error) {
	mPrepSolves.Add(1)
	if err := p.checkTopology(); err != nil {
		return nil, err
	}
	n := p.net
	if p.nNodes == 0 {
		return &Solution{net: n}, nil
	}
	n.stampRHS(p.rhs)
	x, res, err := p.solve(sp, p.rhs, nil)
	if err != nil {
		return nil, err
	}
	return &Solution{
		net:        n,
		v:          x,
		Iterations: res.Iterations,
		Residual:   res.Residual,
		Health:     res.Health,
	}, nil
}

// solve returns x with A·x = b, building the factor or preconditioner
// first if this is the engine's first solve. The iterative kinds start
// from x0 (nil: zero); the direct factor ignores it.
func (p *Prepared) solve(sp *telemetry.Span, b, x0 []float64) ([]float64, sparse.CGResult, error) {
	if err := p.factor(sp); err != nil {
		return nil, sparse.CGResult{}, err
	}
	if p.ndF != nil {
		return p.ndF.Solve(b), sparse.CGResult{}, nil
	}
	spPCG := sp.Start("pcg")
	defer spPCG.End()
	return sparse.PCG(p.a, b, x0, p.prec, p.tol, p.maxIter, p.ws)
}

// factor builds the factor (direct kind) or preconditioner (iterative
// kinds) once, inside a "factor" child span of sp (nil-safe). IC(0) and
// AMG build failures fall back to Jacobi.
func (p *Prepared) factor(sp *telemetry.Span) error {
	if p.ndF != nil || p.prec != nil {
		return nil
	}
	spF := sp.Start("factor")
	defer spF.End()
	switch p.kind {
	case DirectSparseND:
		f, err := sparse.FactorSparse(p.a, sparse.OrderND)
		if err != nil {
			return wrapSPD(err)
		}
		p.ndF = f
	case PCGIC0:
		if ic, err := sparse.NewIC0(p.a); err == nil {
			p.prec = ic
		} else {
			p.prec = sparse.NewJacobi(p.a)
		}
	case PCGAMG:
		spA := spF.Start("amg-build")
		mg, err := sparse.NewAMG(p.a, sparse.AMGOptions{})
		spA.End()
		if err == nil {
			p.prec = mg
		} else {
			p.prec = sparse.NewJacobi(p.a)
		}
	case PCGJacobi:
		p.prec = sparse.NewJacobi(p.a)
	}
	return nil
}
