// Prepared-solve engine: every circuit solve runs here. The
// structure-dependent work — connectivity check, COO→CSR assembly with
// duplicate merging, fill-reducing ordering, and symbolic factorization /
// preconditioner pattern analysis — is done once in Netlist.Compile.
// Repeat solves then restamp only element values (a linear pass with no
// sorting or allocation), numerically refactor on the cached symbolic
// structure, reuse PCG scratch vectors, and may warm-start from a previous
// solution. Netlist.Solve is Compile plus one solve, and Transient compiles
// its backward-Euler step matrix the same way.
//
// Determinism contract: with a nil warm start, a reused engine's Solve is
// bit-identical to a cold engine compiled from the same netlist and
// options. This holds because the value restamp replays the exact
// accumulation order of CSR assembly (sparse.AssemblyMap), and every
// numeric refactor reproduces the from-scratch factorization arithmetic
// exactly.
package circuit

import (
	"fmt"
	"log/slog"

	"voltstack/internal/sparse"
	"voltstack/internal/telemetry"
)

// Prepared-engine instrumentation. Compiles should be rare (once per
// sparsity structure) and solves frequent; recompiles count structure-cache
// misses (topology or gPar-activity drift detected at Solve time).
var (
	mPrepCompiles   = telemetry.NewCounter("circuit_prepared_compiles_total")
	mPrepRecompiles = telemetry.NewCounter("circuit_prepared_recompiles_total")
	mPrepSolves     = telemetry.NewCounter("circuit_prepared_solves_total")
	mPrepRestamps   = telemetry.NewCounter("circuit_prepared_restamps_total")
	mPrepWarmStarts = telemetry.NewCounter("circuit_prepared_warm_starts_total")
)

// valueWriter replays the stamping sequence into a flat COO value stream,
// mirroring Builder.Add's zero-skip so slot t always corresponds to the
// same (row, col) pair the structure was compiled with. bad flags a drift
// between the replayed sequence and the compiled structure.
type valueWriter struct {
	dst []float64
	pos int
	bad bool
}

func (w *valueWriter) Add(i, j int, v float64) {
	if v == 0 {
		return
	}
	if w.pos >= len(w.dst) {
		w.bad = true
		return
	}
	w.dst[w.pos] = v
	w.pos++
}

// Prepared is a compiled solve plan for one Netlist. It caches everything
// that depends only on the sparsity structure and re-derives only values
// per solve. Use the Set* methods to change element values between solves;
// topology changes (added elements, nodes, or a converter's parasitic
// shunt crossing zero) are detected and trigger a transparent recompile.
//
// A Prepared is not safe for concurrent use.
type Prepared struct {
	net     *Netlist
	opts    SolveOptions
	dt      float64 // 0: the DC matrix; > 0: the backward-Euler step matrix
	kind    SolverKind
	tol     float64
	maxIter int

	// Structure sentinels checked on every Solve.
	nNodes    int
	counts    [7]int
	parActive []bool // converter gPar > 0 at compile time

	coo []float64 // element stamp values in canonical order
	am  *sparse.AssemblyMap
	a   *sparse.CSR
	rhs []float64

	// Per-kind cached symbolic structures, factors, and scratch.
	skySym *sparse.SkylineSymbolic
	skyF   *sparse.SkylineChol
	ndSym  *sparse.SparseCholSymbolic
	ndF    *sparse.SparseChol
	icSym  *sparse.IC0Symbolic
	icF    *sparse.IC0Prec
	icOK   bool
	amg    *sparse.AMGPrec
	amgOK  bool
	jac    *sparse.JacobiPrec
	ws     *sparse.PCGWorkspace
	bws    *sparse.PCGBatchWorkspace // lazily built by SolveBatch

	valsDirty bool // element values changed since last restamp
	factored  bool // current factorization matches current values
}

// Compile performs the structural phase of Solve once and returns a
// Prepared engine for repeated value-only solves.
func (n *Netlist) Compile(opts SolveOptions) (*Prepared, error) {
	p := &Prepared{net: n, opts: opts}
	if err := p.compile(); err != nil {
		return nil, err
	}
	return p, nil
}

// Voltages exposes the solved node-voltage vector, indexed by node id
// (ground is not included — it is identically 0). Treat it as read-only:
// it backs the Solution's V queries. Its main use is feeding one solve's
// result into the next Prepared.Solve as a warm start.
func (s *Solution) Voltages() []float64 { return s.v }

func (p *Prepared) compile() error {
	mPrepCompiles.Add(1)
	n := p.net
	nn := n.numNodes
	p.nNodes = nn
	p.counts = n.elementCounts()
	p.parActive = make([]bool, len(n.converters))
	for i, c := range n.converters {
		p.parActive[i] = c.gPar > 0
	}
	p.kind, p.tol, p.maxIter = p.opts.resolve(nn)
	p.skySym, p.skyF = nil, nil
	p.ndSym, p.ndF = nil, nil
	p.icSym, p.icF, p.icOK = nil, nil, false
	p.amg, p.amgOK = nil, false
	p.jac = nil
	p.factored = false
	p.valsDirty = false
	if nn == 0 {
		p.a, p.am, p.coo, p.rhs = nil, nil, nil, nil
		return nil
	}
	if err := n.CheckConnectivity(); err != nil {
		return err
	}
	b := sparse.NewBuilder(nn)
	n.stampMatrix(b, p.dt)
	// The builder's value stream is exactly what a valueWriter replay would
	// produce (same Add order, same zero-skip), so the canonical COO value
	// array is seeded by copy instead of a second stamping pass.
	p.coo = append(p.coo[:0:0], b.CooValues()...)
	p.a, p.am = b.ToCSRIndexed()
	p.rhs = make([]float64, nn)

	switch p.kind {
	case Direct:
		p.skySym = sparse.NewSkylineSymbolic(p.a)
	case DirectSparseND:
		sym, err := sparse.NewSparseCholSymbolic(p.a, sparse.OrderND)
		if err != nil {
			return err
		}
		p.ndSym = sym
	case PCGIC0:
		// A structural IC(0) failure falls back to Jacobi on every solve.
		if sym, err := sparse.NewIC0Symbolic(p.a); err == nil {
			p.icSym = sym
		}
		p.ws = sparse.NewPCGWorkspace(nn)
	case PCGJacobi, PCGAMG:
		// AMG has no symbolic/numeric split: the hierarchy depends on the
		// matrix values, so it is (re)built whole in refactor.
		p.ws = sparse.NewPCGWorkspace(nn)
	default:
		return fmt.Errorf("circuit: unknown solver kind %d", p.kind)
	}
	return nil
}

func (n *Netlist) elementCounts() [7]int {
	return [7]int{
		len(n.resistors), len(n.ties), len(n.loads), len(n.converters),
		len(n.caps), len(n.inductors), len(n.tloads),
	}
}

// structureChanged reports whether the netlist's sparsity structure has
// drifted from what was compiled: element or node counts, or a converter
// parasitic shunt switching between zero and nonzero (which adds/removes
// matrix entries).
func (p *Prepared) structureChanged() bool {
	n := p.net
	if n.numNodes != p.nNodes || n.elementCounts() != p.counts {
		return true
	}
	for i, c := range n.converters {
		if (c.gPar > 0) != p.parActive[i] {
			return true
		}
	}
	return false
}

// SetResistor changes the identified resistor's resistance.
func (p *Prepared) SetResistor(id ResistorID, ohms float64) {
	if ohms <= 0 {
		panic(fmt.Sprintf("circuit: resistor must be positive, got %g", ohms))
	}
	r := &p.net.resistors[id]
	if g := 1 / ohms; r.g != g {
		r.g = g
		p.valsDirty = true
	}
}

// SetTieRail changes the identified tie's rail voltage (RHS-only: no
// restamp or refactor needed).
func (p *Prepared) SetTieRail(id TieID, volts float64) {
	p.net.ties[id].vRail = volts
}

// SetLoad changes the identified load's current draw (RHS-only).
func (p *Prepared) SetLoad(id LoadID, amps float64) {
	p.net.loads[id].i = amps
}

// SetConverter changes the identified converter's series resistance and
// parasitic shunt. A gPar transition between zero and nonzero changes the
// sparsity structure and triggers a recompile on the next Solve.
func (p *Prepared) SetConverter(id ConverterID, rSeries, gPar float64) {
	if rSeries <= 0 {
		panic(fmt.Sprintf("circuit: converter series resistance must be positive, got %g", rSeries))
	}
	if gPar < 0 {
		panic("circuit: negative parasitic conductance")
	}
	c := &p.net.converters[id]
	if g := 1 / rSeries; c.gSeries != g || c.gPar != gPar {
		c.gSeries = g
		c.gPar = gPar
		p.valsDirty = true
	}
}

// Solve solves the network with the current element values. x0, if
// non-nil, is a warm-start voltage vector (length NumNodes) used by the
// iterative solver kinds; direct kinds ignore it. With x0 == nil the
// returned Solution is bit-identical to a cold engine's. sp, if non-nil,
// parents trace spans for the restamp, factor (including AMG hierarchy
// rebuilds) and PCG phases; tracing adds no work when sp is nil, and the
// result is identical either way.
func (p *Prepared) Solve(sp *telemetry.Span, x0 []float64) (*Solution, error) {
	mPrepSolves.Add(1)
	if err := p.ensureCurrent(sp); err != nil {
		return nil, err
	}
	n := p.net
	nn := p.nNodes
	if nn == 0 {
		return &Solution{net: n}, nil
	}
	if x0 != nil && len(x0) != nn {
		panic(fmt.Sprintf("circuit: warm start length %d, want %d nodes", len(x0), nn))
	}
	n.stampRHS(p.rhs)

	sol := &Solution{net: n}
	if d := p.direct(); d != nil {
		sol.v = make([]float64, nn)
		d.SolveTo(sol.v, p.rhs)
		return sol, nil
	}
	if x0 != nil {
		mPrepWarmStarts.Add(1)
	}
	spPCG := sp.Start("pcg")
	x, res, err := sparse.PCGW(p.a, p.rhs, x0, p.preconditioner(), p.tol, p.maxIter, p.ws)
	spPCG.End()
	if err != nil {
		return nil, err
	}
	sol.v = x
	sol.Iterations = res.Iterations
	sol.Residual = res.Residual
	sol.ConvTrace = res.Trace
	sol.Health = res.Health
	return sol, nil
}

// ensureCurrent brings the engine in sync with the netlist: recompile on
// structure drift, restamp matrix values if dirty, and renew the numeric
// factorization. After it returns nil the cached factor matches the
// netlist's current matrix-bearing values. The restamp and factor phases
// are recorded as child spans of sp (nil-safe).
func (p *Prepared) ensureCurrent(sp *telemetry.Span) error {
	if p.structureChanged() {
		mPrepRecompiles.Add(1)
		if telemetry.EventsEnabled() {
			telemetry.Event(slog.LevelInfo, "circuit: prepared engine recompile",
				slog.String("cause", "structure sentinel"),
				slog.Int("nodes", p.nNodes))
		}
		if err := p.compile(); err != nil {
			return err
		}
	}
	if p.nNodes == 0 {
		return nil
	}
	if p.valsDirty {
		mPrepRestamps.Add(1)
		spR := sp.Start("restamp")
		w := &valueWriter{dst: p.coo}
		p.net.stampMatrix(w, p.dt)
		if w.bad || w.pos != len(p.coo) {
			spR.End()
			// Structure drifted in a way the sentinels missed; rebuild.
			mPrepRecompiles.Add(1)
			if telemetry.EventsEnabled() {
				telemetry.Event(slog.LevelWarn, "circuit: prepared engine recompile",
					slog.String("cause", "value-stream drift"),
					slog.Int("nodes", p.nNodes))
			}
			if err := p.compile(); err != nil {
				return err
			}
		} else {
			p.am.Fold(p.coo, p.a.Values())
			p.valsDirty = false
			p.factored = false
			spR.End()
		}
	}
	if !p.factored {
		spF := sp.Start("factor")
		err := p.refactor(spF)
		spF.End()
		if err != nil {
			return err
		}
		p.factored = true
	}
	return nil
}

// refactor renews the numeric factorization (or preconditioner) on the
// cached symbolic structure for the current matrix values. sp (nil-safe)
// parents the AMG hierarchy-rebuild span.
func (p *Prepared) refactor(sp *telemetry.Span) error {
	switch p.kind {
	case Direct:
		f, err := p.skySym.Refactor(p.a, p.skyF)
		if err != nil {
			return wrapSPD(err)
		}
		p.skyF = f
	case DirectSparseND:
		f, err := p.ndSym.Refactor(p.a, p.ndF)
		if err != nil {
			return wrapSPD(err)
		}
		p.ndF = f
	case PCGIC0:
		p.icOK = false
		if p.icSym != nil {
			if ic, err := p.icSym.Factor(p.a, p.icF); err == nil {
				p.icF = ic
				p.icOK = true
			}
		}
		if !p.icOK {
			p.jac = sparse.NewJacobi(p.a)
		}
	case PCGAMG:
		// The hierarchy is value-dependent, so it is rebuilt whole from
		// the restamped matrix, exactly as a cold engine builds it.
		p.amg, p.amgOK = nil, false
		spA := sp.Start("amg-build")
		mg, err := sparse.NewAMG(p.a, sparse.AMGOptions{})
		spA.End()
		if err == nil {
			p.amg = mg
			p.amgOK = true
		}
		if !p.amgOK {
			p.jac = sparse.NewJacobi(p.a)
		}
	case PCGJacobi:
		p.jac = sparse.NewJacobi(p.a)
	}
	return nil
}

// directSolver is a factored matrix: each solve is one pair of triangular
// solves, and a batch runs its lanes on the worker pool.
type directSolver interface {
	SolveTo(dst, b []float64)
	SolveBatchWorkers(bs [][]float64, workers int) [][]float64
}

// direct returns the current factor of a direct kind, or nil for the
// iterative kinds.
func (p *Prepared) direct() directSolver {
	switch p.kind {
	case Direct:
		return p.skyF
	case DirectSparseND:
		return p.ndF
	}
	return nil
}

// preconditioner returns the active preconditioner for the compiled
// iterative kind, honoring the per-kind fallback to Jacobi.
func (p *Prepared) preconditioner() sparse.Preconditioner {
	switch {
	case p.kind == PCGIC0 && p.icOK:
		return p.icF
	case p.kind == PCGAMG && p.amgOK:
		return p.amg
	default:
		return p.jac
	}
}
