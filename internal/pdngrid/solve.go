package pdngrid

import (
	"context"
	"fmt"
	"math"
	"time"

	"voltstack/internal/circuit"
	"voltstack/internal/sc"
	"voltstack/internal/telemetry"
)

// PDN-solve instrumentation: the assemble-vs-linear-solve wall-clock split
// and per-solve node counts are what any further solver optimisation will
// be measured against. No-ops unless telemetry is enabled.
var (
	mSolves          = telemetry.NewCounter("pdngrid_solves_total")
	mAssembleSeconds = telemetry.NewHistogram("pdngrid_assemble_seconds")
	mSolveSeconds    = telemetry.NewHistogram("pdngrid_linear_solve_seconds")
	mNodesHist       = telemetry.NewHistogram("pdngrid_nodes")
	// Engine builds: one per PDN that is solved at all.
	mEngineBuilds = telemetry.NewCounter("pdngrid_engine_builds_total")
)

// Result holds the solved state of one PDN scenario.
type Result struct {
	// Voltage noise.
	MaxIRDropFrac float64 // worst droop below Vdd across all cells, /Vdd
	MaxRiseFrac   float64 // worst overshoot above Vdd across all cells, /Vdd
	WorstLayer    int     // layer of the worst droop

	// Per-conductor currents for EM analysis (one entry per physical
	// conductor; lumped parallel conductors are expanded).
	PadCurrents []float64 // power C4 pads (Vdd and ground)
	TSVCurrents []float64 // all power TSVs incl. V-S through-via segments
	// TSVLayers tags each TSVCurrents entry with the silicon layer at the
	// conductor's lower end, enabling temperature-aware EM analysis
	// (through-vias are tagged 0: they reach down to the package).
	TSVLayers []int

	// Power accounting.
	InputPower    float64 // drawn from the board rails (W)
	LoadPower     float64 // absorbed by the loads (W)
	ConverterLoss float64 // conduction + parasitic converter losses (W)
	WireLoss      float64 // mesh, pad and TSV I²R losses (W)
	Efficiency    float64 // LoadPower / InputPower

	// Converter state (VoltageStacked only).
	ConverterCurrents   []float64 // output current of every converter (A)
	MaxConverterCurrent float64   // max |J| (A)
	OverLimit           bool      // some converter exceeds its rated load

	// Per-layer voltage maps: cell supply voltage (Vdd net minus ground
	// net) for each layer, row-major raster order.
	CellVoltages [][]float64

	// Linear solve diagnostics, propagated from sparse.CGResult via
	// circuit.Solution so callers and tests can assert convergence effort.
	SolverIterations int     // iterative-solver iterations of the linear solve (0 for direct solvers)
	SolverResidual   float64 // final relative residual ‖b−Ax‖₂/‖b‖₂ of the linear solve
	// TotalSolverIterations equals SolverIterations: every solve is one
	// linear solve.
	TotalSolverIterations int
}

// UniformActivities returns an activity matrix with every core of every
// layer at the given activity.
func UniformActivities(layers, cores int, act float64) [][]float64 {
	out := make([][]float64, layers)
	for l := range out {
		row := make([]float64, cores)
		for c := range row {
			row[c] = act
		}
		out[l] = row
	}
	return out
}

// interleavedActivity returns the activity of layer l under the paper's
// interleaved imbalance pattern: even layers fully active, odd layers at
// 1 - imbalance, clamped at zero.
func interleavedActivity(l int, imbalance float64) float64 {
	if l%2 == 0 {
		return 1
	}
	act := 1 - imbalance
	if act < 0 {
		act = 0
	}
	return act
}

// InterleavedActivities returns the paper's Fig. 6 benchmark pattern:
// even layers (0, 2, ...) fully active, odd layers at activity
// 1 - imbalance. This stresses every converter with the same differential
// current, the worst case for the V-S PDN.
func InterleavedActivities(layers, cores int, imbalance float64) [][]float64 {
	out := make([][]float64, layers)
	for l := range out {
		act := interleavedActivity(l, imbalance)
		row := make([]float64, cores)
		for c := range row {
			row[c] = act
		}
		out[l] = row
	}
	return out
}

// Solve builds the MNA network for the given per-layer, per-core activity
// factors and solves it. activities must be Layers x NumCores.
//
// Every solve on a PDN runs on its one engine: the first solve assembles
// the network and builds its factor or preconditioner, and every solve,
// concurrent or not, stamps its own load currents into a right-hand side
// and solves against that factor. Solve is safe for concurrent use.
func (p *PDN) Solve(activities [][]float64) (*Result, error) {
	return p.SolveContext(context.Background(), activities)
}

// SolveContext is Solve with a context: trace spans inherit the context's
// trace ID and solver effort is attributed to the context's job scope (see
// telemetry.Scope). The solve result is byte-identical with or without a
// trace or scope attached. Converters run open loop at their configured
// switching frequency, so every solve is one linear solve.
func (p *PDN) SolveContext(ctx context.Context, activities [][]float64) (*Result, error) {
	s, err := p.solve(ctx, activities)
	if err != nil {
		return nil, err
	}
	if scope := telemetry.ScopeFrom(ctx); scope != nil {
		recordJobSolves(scope, s.sp, s.secs, s.sol)
	}
	return s.res, nil
}

// solved is one finished PDN solve plus what its job-scope attribution
// needs.
type solved struct {
	res  *Result
	sol  *circuit.Solution
	sp   *telemetry.Span // the linear-solve span
	secs float64         // linear-solve wall time, measured under a job scope only
}

// solve rasterizes one activity matrix and solves it on the PDN's engine.
func (p *PDN) solve(ctx context.Context, activities [][]float64) (*solved, error) {
	loads, err := p.rasterizeLoads(activities)
	if err != nil {
		return nil, err
	}

	sp := telemetry.StartSpanCtx(ctx, "pdngrid.solve")
	defer sp.End()
	eng, err := p.engine(sp)
	if err != nil {
		return nil, err
	}

	spS := sp.Start("linear-solve")
	var tJob time.Time
	scoped := telemetry.ScopeFrom(ctx) != nil
	if scoped {
		tJob = time.Now()
	}
	tS := telemetry.Now()
	sol, err := eng.prep.Solve(loads, spS)
	mSolveSeconds.Since(tS)
	spS.End()
	if err != nil {
		return nil, solveFailure(eng.asm.net.NumNodes(), err)
	}
	mSolves.Add(1)
	mNodesHist.Observe(float64(eng.asm.net.NumNodes()))
	s := &solved{res: p.extractResult(eng.asm, sol), sol: sol, sp: spS}
	if scoped {
		s.secs = time.Since(tJob).Seconds()
	}
	return s, nil
}

// recordJobSolves attributes one linear solve to the job scope: per-job
// counters, the latency histogram, the residual gauge, and one exemplar
// keyed to the solve's trace span with its convergence evidence. Every
// field of the exemplar belongs to this one solve.
func recordJobSolves(scope *telemetry.Scope, sp *telemetry.Span, secs float64, sol *circuit.Solution) {
	scope.Counter("job_pdn_solves_total").Add(1)
	scope.Counter("job_solver_iterations_total").Add(int64(sol.Iterations))
	scope.Histogram("job_linear_solve_seconds").Observe(secs)
	scope.Gauge("job_solver_residual_last").Set(sol.Residual)
	ex := telemetry.Exemplar{
		Metric:     "job_linear_solve_seconds",
		Value:      secs,
		Iterations: sol.Iterations,
		Residual:   sol.Residual,
	}
	if tc := sp.TraceContext(); tc.Valid() {
		ex.TraceID, ex.SpanID = tc.TraceIDString(), tc.SpanIDString()
	}
	recordJobHealth(scope, &ex, sol.Health)
	scope.RecordExemplar(ex)
}

// recordJobHealth attributes one probed solve's convergence report to the
// job scope: the job's stats document (and through it `vsctl health`)
// carries the last probed solve's condition estimate, reduction factor and
// detector trips, and the exemplar carries the report's residual
// timeline. Nil h (a direct solve) is a no-op.
func recordJobHealth(scope *telemetry.Scope, ex *telemetry.Exemplar, h *telemetry.ConvergenceReport) {
	if h == nil {
		return
	}
	scope.Counter("job_health_reports_total").Add(1)
	if h.CondEstimate > 0 {
		scope.Gauge("job_health_cond_estimate").Set(h.CondEstimate)
		scope.Gauge("job_health_lambda_min").Set(h.LambdaMin)
		scope.Gauge("job_health_lambda_max").Set(h.LambdaMax)
	}
	if h.ReductionFactor > 0 {
		scope.Gauge("job_health_reduction_factor").Set(h.ReductionFactor)
	}
	if h.Stagnation {
		scope.Counter("job_health_stagnation_total").Add(1)
	}
	if h.Plateau {
		scope.Counter("job_health_plateau_total").Add(1)
	}
	if h.Degradation {
		scope.Counter("job_health_degradation_total").Add(1)
	}
	ex.Residuals, ex.ResidualsDropped = h.Residuals, h.ResidualsDropped
}

// rasterizeLoads converts per-layer, per-core activity factors into the
// engine's load vector: the current at nominal Vdd of every cell, layer by
// layer, so load k is layer k / nCells, cell k % nCells (the order
// assemble adds the static loads in). activities must be Layers x
// NumCores.
func (p *PDN) rasterizeLoads(activities [][]float64) ([]float64, error) {
	cfg := p.Cfg
	if len(activities) != cfg.Layers {
		return nil, fmt.Errorf("pdngrid: need %d layers of activities, got %d", cfg.Layers, len(activities))
	}
	loads := make([]float64, 0, cfg.Layers*p.nCells)
	for l := range activities {
		pm, err := cfg.Chip.PowerMap(activities[l])
		if err != nil {
			return nil, fmt.Errorf("pdngrid: layer %d: %w", l, err)
		}
		cells, err := p.raster.Distribute(p.fp.Blocks, pm)
		if err != nil {
			return nil, err
		}
		for _, w := range cells {
			loads = append(loads, w/cfg.Params.Vdd) // watts -> amperes at nominal Vdd
		}
	}
	return loads, nil
}

// engine pairs one assembled network with its compiled solve plan.
type engine struct {
	asm  *assembled
	prep *circuit.Prepared
}

// engine returns the PDN's one engine, building it on first use inside
// the first caller's span sp. A failed build returns the same error to
// every caller.
func (p *PDN) engine(sp *telemetry.Span) (*engine, error) {
	p.engOnce.Do(func() { p.eng, p.engErr = p.buildEngine(sp) })
	return p.eng, p.engErr
}

// buildEngine assembles the static network at zero load and compiles it.
// Its "assemble" span and pdngrid_assemble_seconds cover stamping, CSR
// assembly and, in the "factor" child span, the factor or preconditioner
// build.
func (p *PDN) buildEngine(sp *telemetry.Span) (*engine, error) {
	tA := telemetry.Now()
	spA := sp.Start("assemble")
	defer spA.End()
	asm := p.assemble(nil)
	prep, err := asm.net.Compile(p.Cfg.Solve, spA)
	mAssembleSeconds.Since(tA)
	if err != nil {
		return nil, fmt.Errorf("pdngrid: %w", err)
	}
	mEngineBuilds.Add(1)
	return &engine{asm: asm, prep: prep}, nil
}

// dynSpec adds dynamic elements for transient analysis.
type dynSpec struct {
	cellAmps     []float64               // load current per mesh cell, the same on every layer
	scale        func(t float64) float64 // load scaling over time
	decapPerCell float64                 // on-die decap per mesh cell per layer (F)
	pkgL         float64                 // package inductance per polarity (H)
}

// assembled is a built MNA network plus the element indices needed to
// extract metrics.
type assembled struct {
	net      *circuit.Netlist
	node     func(layer, mesh, cell int) int
	padRes   []circuit.ResistorID
	padRefs  []lumpRef
	tsvRes   []circuit.ResistorID
	tsvRefs  []lumpRef
	tvRes    []circuit.ResistorID
	tvRefs   []lumpRef
	convIDs  []circuit.ConverterID
	vddBoard int
	gndBoard int
}

// assemble builds the full MNA network for the scenario. dyn may be nil
// (pure DC network, every load at 0 A).
func (p *PDN) assemble(dyn *dynSpec) *assembled {
	cfg := p.Cfg
	prm := cfg.Params
	nx, ny := prm.GridNx, prm.GridNy
	nCells := p.nCells
	L := cfg.Layers
	segR := prm.SegR()

	net := circuit.New()
	net.Nodes(L * 2 * nCells)
	// node(layer, 0) = Vdd mesh, node(layer, 1) = ground mesh.
	node := func(layer, mesh, cell int) int { return (layer*2+mesh)*nCells + cell }
	a := &assembled{net: net, node: node}

	// Lateral mesh segments for every layer and both meshes.
	for l := 0; l < L; l++ {
		for mesh := 0; mesh < 2; mesh++ {
			for iy := 0; iy < ny; iy++ {
				for ix := 0; ix < nx; ix++ {
					c := iy*nx + ix
					if ix+1 < nx {
						net.AddResistor(node(l, mesh, c), node(l, mesh, c+1), segR)
					}
					if iy+1 < ny {
						net.AddResistor(node(l, mesh, c), node(l, mesh, c+nx), segR)
					}
				}
			}
		}
	}

	// Loads: per cell, between the layer's Vdd and ground meshes. The DC
	// network gets a 0 A load element for every cell, layer by layer, so
	// load k is layer k / nCells, cell k % nCells: each solve passes its
	// currents in that order. With a dynamic spec the loads follow
	// amps·scale(t); on-die decoupling capacitance sits in parallel with
	// every cell load.
	for l := 0; l < L; l++ {
		for c := 0; c < nCells; c++ {
			vdd, gnd := node(l, 0, c), node(l, 1, c)
			if dyn == nil {
				net.AddLoad(vdd, gnd, 0)
				continue
			}
			if amps := dyn.cellAmps[c]; amps > 0 {
				if dyn.scale != nil {
					net.AddTransientLoad(vdd, gnd, func(t float64) float64 { return amps * dyn.scale(t) })
				} else {
					net.AddLoad(vdd, gnd, amps)
				}
			}
			if dyn.decapPerCell > 0 {
				net.AddCapacitor(vdd, gnd, dyn.decapPerCell)
			}
		}
	}

	// Board-side nodes: the package resistance (and, in transient runs,
	// the package inductance) sits between the ideal regulator rails and
	// the pad array, so the regular PDN pays for its N-fold off-chip
	// current while the V-S PDN does not.
	pkgR := prm.PkgR
	if pkgR <= 0 {
		pkgR = 1e-9 // effectively ideal, keeps the network well posed
	}
	vddBoard := net.Node()
	gndBoard := net.Node()
	a.vddBoard, a.gndBoard = vddBoard, gndBoard
	// tieBoard attaches a board node to its rail, optionally through the
	// package inductance.
	tieBoard := func(board int, rail float64) {
		if dyn != nil && dyn.pkgL > 0 {
			mid := net.Node()
			net.AddRailTie(mid, pkgR, rail)
			net.AddInductor(mid, board, dyn.pkgL)
		} else {
			net.AddRailTie(board, pkgR, rail)
		}
	}

	padRes := &a.padRes
	padRefs := &a.padRefs
	tsvRes := &a.tsvRes
	tsvResRefs := &a.tsvRefs
	tvRes := &a.tvRes
	tvRefs := &a.tvRefs
	convIDs := &a.convIDs

	switch cfg.Kind {
	case Regular:
		tieBoard(vddBoard, prm.Vdd)
		tieBoard(gndBoard, 0)
		// C4 pads on the bottom layer.
		for _, s := range p.padSites {
			board, mesh := gndBoard, 1
			if s.vdd {
				board, mesh = vddBoard, 0
			}
			id := net.AddResistor(board, node(0, mesh, s.cell), prm.PadR/float64(s.count))
			*padRes = append(*padRes, id)
			*padRefs = append(*padRefs, lumpRef{count: s.count, segs: 1})
		}
		// TSVs between adjacent layers: Vdd mesh to Vdd mesh, ground to
		// ground.
		for l := 1; l < L; l++ {
			for _, s := range p.tsvSites {
				mesh := 1
				if s.vdd {
					mesh = 0
				}
				id := net.AddResistor(node(l-1, mesh, s.cell), node(l, mesh, s.cell), prm.TSVR/float64(s.count))
				*tsvRes = append(*tsvRes, id)
				*tsvResRefs = append(*tsvResRefs, lumpRef{count: s.count, segs: 1, layer: l - 1})
			}
		}

	case VoltageStacked:
		vTop := float64(L) * prm.Vdd
		tieBoard(vddBoard, vTop)
		tieBoard(gndBoard, 0)
		// Ground pads tie the bottom ground mesh to the board ground.
		// Each Vdd pad feeds the TOP Vdd mesh at N·Vdd through a single
		// through-via (the paper connects "each Vdd C4 pad with only one
		// TSV" to the top layer).
		for _, s := range p.padSites {
			if s.vdd {
				r := (prm.PadR + prm.TSVR) / float64(s.count)
				id := net.AddResistor(vddBoard, node(L-1, 0, s.cell), r)
				*tvRes = append(*tvRes, id)
				*tvRefs = append(*tvRefs, lumpRef{count: s.count, segs: 1})
			} else {
				id := net.AddResistor(gndBoard, node(0, 1, s.cell), prm.PadR/float64(s.count))
				*padRes = append(*padRes, id)
				*padRefs = append(*padRefs, lumpRef{count: s.count, segs: 1})
			}
		}
		// Inter-rail TSVs: layer l's ground mesh is layer l-1's Vdd mesh.
		for l := 1; l < L; l++ {
			for _, s := range p.tsvSites {
				id := net.AddResistor(node(l, 1, s.cell), node(l-1, 0, s.cell), prm.TSVR/float64(s.count))
				*tsvRes = append(*tsvRes, id)
				*tsvResRefs = append(*tsvResRefs, lumpRef{count: s.count, segs: 1, layer: l - 1})
			}
		}
		// SC converters on every intermediate rail k = 1..L-1:
		// top terminal on rail k+1 (layer k's Vdd mesh), bottom on rail
		// k-1 (layer k-1's ground mesh), output on rail k (layer k-1's
		// Vdd mesh, TSV-tied to layer k's ground mesh).
		rs := cfg.Converter.RSeries(cfg.Converter.FSw)
		gPar := cfg.Converter.ParasiticShuntG(cfg.Converter.FSw, 2*prm.Vdd)
		for k := 1; k < L; k++ {
			for _, cell := range p.convCell {
				id := net.AddConverter2to1(
					node(k, 0, cell),   // top: rail k+1
					node(k-1, 1, cell), // bottom: rail k-1
					node(k-1, 0, cell), // mid: rail k
					rs, gPar)
				*convIDs = append(*convIDs, id)
			}
		}
	}
	return a
}

// extractResult derives all scenario metrics from a solved network, so a
// bit-identical Solution yields a bit-identical Result.
func (p *PDN) extractResult(asm *assembled, sol *circuit.Solution) *Result {
	cfg := p.Cfg
	prm := cfg.Params
	nCells := p.nCells
	L := cfg.Layers
	node := asm.node

	res := &Result{
		SolverIterations:      sol.Iterations,
		SolverResidual:        sol.Residual,
		TotalSolverIterations: sol.Iterations,
	}

	// Voltage noise metrics.
	res.CellVoltages = make([][]float64, L)
	res.MaxIRDropFrac = math.Inf(-1)
	for l := 0; l < L; l++ {
		cv := make([]float64, nCells)
		for c := 0; c < nCells; c++ {
			v := sol.V(node(l, 0, c)) - sol.V(node(l, 1, c))
			cv[c] = v
			droop := (prm.Vdd - v) / prm.Vdd
			if droop > res.MaxIRDropFrac {
				res.MaxIRDropFrac = droop
				res.WorstLayer = l
			}
			if rise := -droop; rise > res.MaxRiseFrac {
				res.MaxRiseFrac = rise
			}
		}
		res.CellVoltages[l] = cv
	}

	// Conductor currents for EM.
	for i, id := range asm.padRes {
		expandEM(&res.PadCurrents, sol.ResistorCurrent(id), asm.padRefs[i], asm.padRefs[i].count)
	}
	for i, id := range asm.tvRes {
		cur := sol.ResistorCurrent(id)
		// A through-via chain stresses both its C4 pad and its TSV.
		expandEM(&res.PadCurrents, cur, lumpRef{count: asm.tvRefs[i].count, segs: 1}, asm.tvRefs[i].count)
		before := len(res.TSVCurrents)
		expandEM(&res.TSVCurrents, cur, asm.tvRefs[i], prm.CrowdEff(asm.tvRefs[i].count))
		for k := before; k < len(res.TSVCurrents); k++ {
			res.TSVLayers = append(res.TSVLayers, asm.tvRefs[i].layer)
		}
	}
	for i, id := range asm.tsvRes {
		before := len(res.TSVCurrents)
		expandEM(&res.TSVCurrents, sol.ResistorCurrent(id), asm.tsvRefs[i], prm.CrowdEff(asm.tsvRefs[i].count))
		for k := before; k < len(res.TSVCurrents); k++ {
			res.TSVLayers = append(res.TSVLayers, asm.tsvRefs[i].layer)
		}
	}

	// Converter state.
	for _, id := range asm.convIDs {
		j := sol.ConverterOutputCurrent(id)
		res.ConverterCurrents = append(res.ConverterCurrents, j)
		if a := math.Abs(j); a > res.MaxConverterCurrent {
			res.MaxConverterCurrent = a
		}
	}
	res.OverLimit = cfg.Kind == VoltageStacked && cfg.Converter.OverLimit(res.MaxConverterCurrent)

	// Power accounting.
	res.InputPower = sol.TotalInputPower()
	res.LoadPower = sol.TotalLoadPower()
	res.ConverterLoss = sol.TotalConverterLoss()
	res.WireLoss = sol.TotalResistorLoss()
	if res.InputPower > 0 {
		res.Efficiency = res.LoadPower / res.InputPower
	}
	return res
}

// lumpRef describes how a lumped element expands into EM conductors: count
// parallel current paths, each consisting of segs series conductors
// (through-vias span several layer crossings), located at silicon layer
// `layer` (lower end) for temperature-aware EM.
type lumpRef struct {
	count int
	segs  int
	layer int
}

// expandEM appends the per-conductor currents of a lumped site: the lump
// carries total current cur through eff effectively-conducting conductors
// (eff <= ref.count when current crowding shields part of the cluster;
// shielded conductors are unstressed and omitted from the EM population).
// Each conducting path consists of ref.segs series EM conductors.
func expandEM(dst *[]float64, cur float64, ref lumpRef, eff int) {
	if eff < 1 {
		eff = 1
	}
	per := math.Abs(cur) / float64(eff)
	for k := 0; k < eff*ref.segs; k++ {
		*dst = append(*dst, per)
	}
}

// RegularSCEfficiency models the Fig. 8 baseline: a regular (parallel)
// PDN in which on-chip SC converters provide 100% of the load current from
// a 2·Vdd input rail. Because the converters process the full current
// rather than the inter-layer differential, both conduction and parasitic
// losses apply to everything the chip draws. Returns system efficiency for
// the interleaved imbalance pattern.
func RegularSCEfficiency(cfg Config, imbalance float64) (float64, error) {
	if cfg.Chip == nil {
		return 0, fmt.Errorf("pdngrid: nil chip")
	}
	if cfg.ConvertersPerCore < 1 {
		return 0, fmt.Errorf("pdngrid: baseline needs converters")
	}
	vdd := cfg.Params.Vdd
	core := cfg.Chip.Core
	nCores := cfg.Chip.NumCores()
	var loadP, inP float64
	for l := 0; l < cfg.Layers; l++ {
		act := interleavedActivity(l, imbalance)
		pCore := core.Total(act, vdd, core.FClk)
		iConv := pCore / vdd / float64(cfg.ConvertersPerCore)
		op := sc.Evaluate(cfg.Converter, sc.OpenLoop{}, 2*vdd, iConv)
		// Each converter delivers POut at its drooped output and draws the
		// ideal-transformer power plus parasitics from the 2·Vdd rail.
		nConv := float64(nCores * cfg.ConvertersPerCore)
		loadP += nConv * op.POut
		inP += nConv * (op.VNoLoad*op.ILoad + op.PParasitic)
	}
	if inP <= 0 {
		return 0, fmt.Errorf("pdngrid: degenerate baseline")
	}
	return loadP / inP, nil
}
