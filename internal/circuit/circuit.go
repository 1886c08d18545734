// Package circuit builds and solves resistive modified-nodal-analysis (MNA)
// networks: resistors, DC load current sources, rail ties (a resistor to an
// ideal voltage rail, used for C4 pads), and ideal 2:1 switched-capacitor
// converter elements.
//
// The 2:1 converter with terminals (top, bottom, mid) obeys
// Vmid = (Vtop+Vbottom)/2 behind a series resistance. Substituting the
// branch current into the KCL rows yields the symmetric positive
// semidefinite contribution G·vvᵀ with v = (1/2, 1/2, -1), so the global
// conductance matrix remains SPD and every network assembled here can be
// solved with Cholesky or preconditioned conjugate gradients.
package circuit

import (
	"errors"
	"fmt"

	"voltstack/internal/sparse"
	"voltstack/internal/telemetry"
)

// Ground is the reference node. Its potential is exactly 0.
const Ground = -1

// ResistorID identifies a resistor for current extraction.
type ResistorID int

// TieID identifies a rail tie for current extraction.
type TieID int

// LoadID identifies a load current source.
type LoadID int

// ConverterID identifies a 2:1 converter element.
type ConverterID int

type resistor struct {
	a, b int
	g    float64 // conductance
}

type railTie struct {
	node  int
	g     float64 // pad conductance
	vRail float64
}

type load struct {
	from, to int // current i flows out of from, into to (through the load)
	i        float64
}

type converter struct {
	top, bottom, mid int
	gSeries          float64 // 1/RSERIES
	gPar             float64 // parasitic shunt across (top, bottom)
}

// Netlist is a network description. Allocate nodes with Node, add
// elements, then call Solve (DC), Transient, or Compile for repeated
// solves. A compiled engine takes its load currents per solve; a netlist
// that gains nodes or elements after Compile makes the engine's solves
// return ErrNetlistChanged.
type Netlist struct {
	numNodes   int
	resistors  []resistor
	ties       []railTie
	loads      []load
	converters []converter
	caps       []capacitor
	inductors  []inductor
	tloads     []tload
}

// New returns an empty netlist.
func New() *Netlist { return &Netlist{} }

// Node allocates and returns a new node index.
func (n *Netlist) Node() int {
	id := n.numNodes
	n.numNodes++
	return id
}

// Nodes allocates k new nodes and returns their indices.
func (n *Netlist) Nodes(k int) []int {
	ids := make([]int, k)
	for i := range ids {
		ids[i] = n.Node()
	}
	return ids
}

// NumNodes returns the number of allocated (non-ground) nodes.
func (n *Netlist) NumNodes() int { return n.numNodes }

func (n *Netlist) checkNode(node int) {
	if node < Ground || node >= n.numNodes {
		panic(fmt.Sprintf("circuit: node %d out of range (have %d nodes)", node, n.numNodes))
	}
}

// AddResistor connects nodes a and b with a resistor of the given value in
// ohms and returns an identifier usable with Solution.ResistorCurrent.
func (n *Netlist) AddResistor(a, b int, ohms float64) ResistorID {
	n.checkNode(a)
	n.checkNode(b)
	if ohms <= 0 {
		panic(fmt.Sprintf("circuit: resistor must be positive, got %g", ohms))
	}
	if a == b {
		panic("circuit: resistor endpoints must differ")
	}
	n.resistors = append(n.resistors, resistor{a, b, 1 / ohms})
	return ResistorID(len(n.resistors) - 1)
}

// AddRailTie connects node to an ideal rail at volts through a resistance of
// ohms (e.g. a C4 pad). Returns an identifier for current extraction.
func (n *Netlist) AddRailTie(node int, ohms, volts float64) TieID {
	n.checkNode(node)
	if node == Ground {
		panic("circuit: cannot tie ground to a rail")
	}
	if ohms <= 0 {
		panic(fmt.Sprintf("circuit: tie resistance must be positive, got %g", ohms))
	}
	n.ties = append(n.ties, railTie{node, 1 / ohms, volts})
	return TieID(len(n.ties) - 1)
}

// AddLoad adds an ideal DC load drawing amps from node `from` and returning
// it into node `to` (usually the local ground net). This is the VoltSpot
// ideal-current-source load model.
func (n *Netlist) AddLoad(from, to int, amps float64) LoadID {
	n.checkNode(from)
	n.checkNode(to)
	n.loads = append(n.loads, load{from, to, amps})
	return LoadID(len(n.loads) - 1)
}

// AddConverter2to1 adds an ideal push-pull 2:1 SC converter across
// (top, bottom) with output mid, series resistance rSeries ohms, and a
// parasitic shunt conductance gPar (siemens) across (top, bottom) that
// models frequency-dependent switching losses. gPar may be zero.
func (n *Netlist) AddConverter2to1(top, bottom, mid int, rSeries, gPar float64) ConverterID {
	n.checkNode(top)
	n.checkNode(bottom)
	n.checkNode(mid)
	if rSeries <= 0 {
		panic(fmt.Sprintf("circuit: converter series resistance must be positive, got %g", rSeries))
	}
	if gPar < 0 {
		panic("circuit: negative parasitic conductance")
	}
	n.converters = append(n.converters, converter{top, bottom, mid, 1 / rSeries, gPar})
	return ConverterID(len(n.converters) - 1)
}

// SolverKind selects the linear solver used by Solve.
type SolverKind int

const (
	// Auto picks by node count and by SolveOptions.RHS, the right-hand
	// sides that will share the engine: DirectSparseND up to a node edge
	// that grows with RHS (directRule: 4,000 nodes for fewer than 10, up
	// to 200k for 1,000 or more), PCGAMG above it.
	Auto SolverKind = iota
	// DirectSparseND uses the sparse Cholesky factorization with
	// nested-dissection ordering.
	DirectSparseND
	// PCGAMG uses conjugate gradients with an aggregation-based algebraic
	// multigrid preconditioner, whose iteration count stays nearly flat as
	// the mesh grows.
	PCGAMG
)

// SolveOptions tunes the linear solve. The zero value is a good default.
type SolveOptions struct {
	Solver  SolverKind
	Tol     float64 // relative residual target for iterative solvers (default 1e-12)
	MaxIter int     // iteration budget (default 20*n)
	// RHS is the number of right-hand sides the caller will solve against
	// one compiled engine (0 means 1). Only Auto reads it: a factor shared
	// by more solves pays for its setup on larger networks.
	RHS int
}

// directRule is Auto's direct-solver edge: with at least rhs right-hand
// sides per engine, networks of up to nodes nodes are factored with
// DirectSparseND; larger ones run AMG-PCG. Against AMG-PCG, the factor's
// extra setup pays back after 5–9 solves on most 4k–8k-node PDN meshes,
// about 15 on 16×16×12 V-S and 13–15 on 32×32×8 (16,386 nodes), where a
// warm ND solve is still 3–7× faster (DESIGN.md §12).
var directRule = [...]struct{ rhs, nodes int }{
	{1, 4_000},           // a lone solve: setup decides
	{10, 8_194},          // 32×32×4 PDN; a Fig. 6 sweep solves 11
	{100, 16_386},        // 32×32×8 PDN; ext-trace-noise solves 100
	{1000, manyRHSNodes}, // transients: one factor serves every step
}

// directNodes is the largest network Auto factors directly when rhs
// right-hand sides share the engine.
func directNodes(rhs int) int {
	nodes := directRule[0].nodes
	for _, r := range directRule[1:] {
		if rhs >= r.rhs {
			nodes = r.nodes
		}
	}
	return nodes
}

// manyRHSNodes is the largest network Auto factors directly with 1,000 or
// more right-hand sides per engine. It is not a measured crossover: ND's
// setup pays back against AMG after at most 15 solves on every PDN mesh
// measured (up to 16,386 nodes; DESIGN.md §12), and a transient's
// thousand steps amortize it far beyond that.
const manyRHSNodes = 200_000

// ErrFloating is returned when the network has no DC path from some node to
// ground or a rail, which makes the conductance matrix singular.
var ErrFloating = errors.New("circuit: network has floating nodes (no path to ground or a rail)")

// Solution holds solved node voltages and provides element-level queries.
type Solution struct {
	net   *Netlist
	loads []float64 // the solve's load currents, indexed by LoadID
	v     []float64
	// Stats from the linear solve.
	Iterations int
	Residual   float64
	// Health is the solve's convergence report (residual trajectory,
	// condition estimate, reduction factor), set by every AMG-PCG solve;
	// nil for a direct solve.
	Health *telemetry.ConvergenceReport
}

// CheckConnectivity verifies that every node has a conductive path to
// ground or to a rail tie, the condition for the conductance matrix to be
// nonsingular. Returns ErrFloating with the number of floating nodes.
func (n *Netlist) CheckConnectivity() error {
	// Union-find over nodes plus a virtual root for ground/rails.
	parent := make([]int, n.numNodes+1)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	root := n.numNodes // ground/rail component
	idx := func(node int) int {
		if node == Ground {
			return root
		}
		return node
	}
	union := func(a, b int) {
		ra, rb := find(idx(a)), find(idx(b))
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, r := range n.resistors {
		union(r.a, r.b)
	}
	for _, t := range n.ties {
		union(t.node, Ground)
	}
	for _, c := range n.converters {
		union(c.top, c.mid)
		union(c.bottom, c.mid)
	}
	for _, c := range n.caps {
		union(c.a, c.b)
	}
	for _, l := range n.inductors {
		union(l.a, l.b)
	}
	floating := 0
	for i := 0; i < n.numNodes; i++ {
		if find(i) != find(root) {
			floating++
		}
	}
	if floating > 0 {
		return fmt.Errorf("%w: %d of %d nodes", ErrFloating, floating, n.numNodes)
	}
	return nil
}

// Kind returns the solver kind o selects for an nn-node system: Solver,
// or for Auto the kind its node count and RHS pick.
func (o SolveOptions) Kind(nn int) SolverKind {
	kind, _, _ := o.resolve(nn)
	return kind
}

// resolve fills in the defaults of SolveOptions for an nn-node system.
func (o SolveOptions) resolve(nn int) (kind SolverKind, tol float64, maxIter int) {
	kind = o.Solver
	if kind == Auto {
		kind = PCGAMG
		if nn <= directNodes(o.RHS) {
			kind = DirectSparseND
		}
	}
	tol = o.Tol
	if tol == 0 {
		tol = 1e-12
	}
	maxIter = o.MaxIter
	if maxIter == 0 {
		maxIter = 20 * nn
		if maxIter < 1000 {
			maxIter = 1000
		}
	}
	return kind, tol, maxIter
}

// wrapSPD maps a factorization positive-definiteness failure onto the
// circuit-level floating-network error.
func wrapSPD(err error) error {
	if errors.Is(err, sparse.ErrNotPositiveDefinite) {
		return fmt.Errorf("%w: %v", ErrFloating, err)
	}
	return err
}

// Matrix assembles the matrix every solve factors: the DC conductance
// matrix for dt == 0, the companion matrix with C/dt and dt/L for dt > 0.
// A trapezoidal step of length h factors Matrix(h/2).
func (n *Netlist) Matrix(dt float64) *sparse.CSR {
	var m entryCount
	n.stampMatrix(&m, dt)
	b := sparse.NewBuilder(n.numNodes)
	b.Grow(int(m))
	n.stampMatrix(b, dt)
	return b.ToCSR()
}

// stamper receives matrix entries: a *sparse.Builder, or an entryCount
// that sizes one first.
type stamper interface{ Add(i, j int, v float64) }

// entryCount counts the entries a sparse.Builder would keep (it drops
// zeros).
type entryCount int

func (c *entryCount) Add(_, _ int, v float64) {
	if v != 0 {
		*c++
	}
}

// stampMatrix stamps every matrix-bearing element into b in the canonical
// element order (resistors, ties, converters, capacitors, inductors).
//
// dt == 0 stamps the DC matrix: capacitors are open circuits, inductors
// near-ideal shorts. dt > 0 stamps the companion conductances C/dt and
// dt/L; at dt = h/2 these are the trapezoidal rule's 2C/h and h/2L, the
// step matrix of a transient at step h.
func (n *Netlist) stampMatrix(b stamper, dt float64) {
	for _, r := range n.resistors {
		stampConductance(b, r.a, r.b, r.g)
	}
	for _, t := range n.ties {
		b.Add(t.node, t.node, t.g)
	}
	for _, c := range n.converters {
		stampConverter(b, c)
	}
	if dt > 0 {
		for _, c := range n.caps {
			stampConductance(b, c.a, c.b, c.c/dt)
		}
	}
	for _, l := range n.inductors {
		g := 1 / RIndDC
		if dt > 0 {
			g = dt / l.l
		}
		stampConductance(b, l.a, l.b, g)
	}
}

// stampRHS adds the right-hand side (rail injections, DC loads drawing
// loads[k] amperes for LoadID(k), and the t=0 value of transient loads)
// into the zeroed rhs.
func (n *Netlist) stampRHS(rhs, loads []float64) {
	for _, t := range n.ties {
		rhs[t.node] += t.g * t.vRail
	}
	for k, l := range n.loads {
		if l.from != Ground {
			rhs[l.from] -= loads[k]
		}
		if l.to != Ground {
			rhs[l.to] += loads[k]
		}
	}
	for _, tl := range n.tloads {
		i := tl.fn(0)
		if tl.from != Ground {
			rhs[tl.from] -= i
		}
		if tl.to != Ground {
			rhs[tl.to] += i
		}
	}
}

// Solve assembles the conductance matrix and solves for all node voltages
// at the netlist's own load currents: Compile plus one cold solve. Use
// Compile directly to solve the same network repeatedly.
func (n *Netlist) Solve(opts SolveOptions) (*Solution, error) {
	p, err := n.Compile(opts, nil)
	if err != nil {
		return nil, err
	}
	return p.Solve(n.loadCurrents(), nil)
}

// loadCurrents returns the netlist's own load currents, indexed by LoadID.
func (n *Netlist) loadCurrents() []float64 {
	loads := make([]float64, len(n.loads))
	for k, l := range n.loads {
		loads[k] = l.i
	}
	return loads
}

func stampConductance(b stamper, i, j int, g float64) {
	if i != Ground {
		b.Add(i, i, g)
	}
	if j != Ground {
		b.Add(j, j, g)
	}
	if i != Ground && j != Ground {
		b.Add(i, j, -g)
		b.Add(j, i, -g)
	}
}

// stampConverter adds G·vvᵀ over (top, bottom, mid) with v = (1/2, 1/2, -1),
// plus the parasitic shunt across (top, bottom).
func stampConverter(b stamper, c converter) {
	nodes := [3]int{c.top, c.bottom, c.mid}
	coef := [3]float64{0.5, 0.5, -1}
	for i := 0; i < 3; i++ {
		if nodes[i] == Ground {
			continue
		}
		for j := 0; j < 3; j++ {
			if nodes[j] == Ground {
				continue
			}
			b.Add(nodes[i], nodes[j], c.gSeries*coef[i]*coef[j])
		}
	}
	if c.gPar > 0 {
		stampConductance(b, c.top, c.bottom, c.gPar)
	}
}

// V returns the solved potential of node (0 for Ground).
func (s *Solution) V(node int) float64 {
	if node == Ground {
		return 0
	}
	return s.v[node]
}

// ResistorCurrent returns the current flowing from terminal a to terminal b
// of the identified resistor.
func (s *Solution) ResistorCurrent(id ResistorID) float64 {
	r := s.net.resistors[id]
	return (s.V(r.a) - s.V(r.b)) * r.g
}

// TieCurrent returns the current flowing from the rail into the tied node.
func (s *Solution) TieCurrent(id TieID) float64 {
	t := s.net.ties[id]
	return (t.vRail - s.V(t.node)) * t.g
}

// ConverterOutputCurrent returns the current the identified converter
// delivers into its mid node (negative when sinking).
func (s *Solution) ConverterOutputCurrent(id ConverterID) float64 {
	c := s.net.converters[id]
	return c.gSeries * ((s.V(c.top)+s.V(c.bottom))/2 - s.V(c.mid))
}

// ConverterConductionLoss returns the J²·RSERIES loss of one converter.
func (s *Solution) ConverterConductionLoss(id ConverterID) float64 {
	c := s.net.converters[id]
	j := s.ConverterOutputCurrent(id)
	return j * j / c.gSeries
}

// ConverterParasiticLoss returns the switching/parasitic shunt loss of one
// converter.
func (s *Solution) ConverterParasiticLoss(id ConverterID) float64 {
	c := s.net.converters[id]
	dv := s.V(c.top) - s.V(c.bottom)
	return c.gPar * dv * dv
}

// LoadVoltage returns the voltage across the identified load (V(from)-V(to)).
func (s *Solution) LoadVoltage(id LoadID) float64 {
	l := s.net.loads[id]
	return s.V(l.from) - s.V(l.to)
}

// LoadPower returns the power absorbed by the identified load at the
// current it drew in this solve.
func (s *Solution) LoadPower(id LoadID) float64 {
	return s.loads[id] * s.LoadVoltage(id)
}

// TotalLoadPower sums the power absorbed by all loads.
func (s *Solution) TotalLoadPower() float64 {
	var p float64
	for id := range s.net.loads {
		p += s.LoadPower(LoadID(id))
	}
	return p
}

// TotalInputPower sums the power delivered by all rails: Σ Vrail · Itie.
func (s *Solution) TotalInputPower() float64 {
	var p float64
	for id, t := range s.net.ties {
		p += t.vRail * s.TieCurrent(TieID(id))
	}
	return p
}

// TotalResistorLoss sums I²R dissipation over resistors and rail ties.
func (s *Solution) TotalResistorLoss() float64 {
	var p float64
	for _, r := range s.net.resistors {
		dv := s.V(r.a) - s.V(r.b)
		p += dv * dv * r.g
	}
	for _, t := range s.net.ties {
		dv := t.vRail - s.V(t.node)
		p += dv * dv * t.g
	}
	return p
}

// TotalConverterLoss sums conduction plus parasitic losses over converters.
func (s *Solution) TotalConverterLoss() float64 {
	var p float64
	for id := range s.net.converters {
		p += s.ConverterConductionLoss(ConverterID(id))
		p += s.ConverterParasiticLoss(ConverterID(id))
	}
	return p
}

// EnergyBalanceError returns the relative mismatch between input power and
// the sum of load power and all losses — a solver sanity metric that should
// be at the solve tolerance.
func (s *Solution) EnergyBalanceError() float64 {
	in := s.TotalInputPower()
	out := s.TotalLoadPower() + s.TotalResistorLoss() + s.TotalConverterLoss()
	if in == 0 && out == 0 {
		return 0
	}
	denom := in
	if denom < 0 {
		denom = -denom
	}
	if denom == 0 {
		denom = 1
	}
	diff := in - out
	if diff < 0 {
		diff = -diff
	}
	return diff / denom
}
