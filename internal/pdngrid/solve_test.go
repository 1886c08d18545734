package pdngrid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/sparse"
	"voltstack/internal/telemetry"
)

// TestConvergenceStatsPropagated asserts that the sparse-solver convergence
// effort (iterations, final residual) surfaces in Result, so callers can
// budget solver work and detect ill-conditioned meshes.
func TestConvergenceStatsPropagated(t *testing.T) {
	const tol = 1e-10
	cfg := vsCfg(3, 4)
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGAMG, Tol: tol}
	r := mustSolve(t, cfg, InterleavedActivities(3, 16, 0.5))
	if r.SolverIterations <= 0 {
		t.Errorf("PCG solve reported %d iterations, want > 0", r.SolverIterations)
	}
	if r.SolverResidual <= 0 || r.SolverResidual > tol {
		t.Errorf("final residual %g, want in (0, %g]", r.SolverResidual, tol)
	}
	if r.TotalSolverIterations != r.SolverIterations {
		t.Errorf("total %d != final %d", r.TotalSolverIterations, r.SolverIterations)
	}
}

// TestConvergenceStatsDirect pins the contract that direct solves report
// zero iterative effort and zero residual bookkeeping burden.
func TestConvergenceStatsDirect(t *testing.T) {
	cfg := regularCfg(3, SparseTSV())
	cfg.Solve = circuit.SolveOptions{Solver: circuit.DirectSparseND}
	r := mustSolve(t, cfg, UniformActivities(3, 16, 1))
	if r.SolverIterations != 0 || r.TotalSolverIterations != 0 {
		t.Errorf("direct solve reported %d/%d iterations, want 0/0", r.SolverIterations, r.TotalSolverIterations)
	}
}

// TestAutoKeysOnRHS: the coarse 8-layer V-S PDN (4,098 nodes) is past
// Auto's one-solve direct edge, so alone it solves with AMG-PCG; with
// the 11 right-hand sides of a Fig. 6 sweep it is factored directly.
// Config.SolverKind must name the kind the engine used.
func TestAutoKeysOnRHS(t *testing.T) {
	acts := InterleavedActivities(8, 16, 0.65)
	for _, c := range []struct {
		rhs  int
		want circuit.SolverKind
	}{
		{0, circuit.PCGAMG},
		{11, circuit.DirectSparseND},
	} {
		cfg := vsCfg(8, 8)
		cfg.Solve.RHS = c.rhs
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := p.assemble(nil).net.NumNodes(); n != 4098 {
			t.Fatalf("DC network has %d nodes, want 4098", n)
		}
		if got := cfg.SolverKind(); got != c.want {
			t.Errorf("RHS %d: SolverKind() = %d, want %d", c.rhs, got, c.want)
		}
		r, err := p.Solve(acts)
		if err != nil {
			t.Fatal(err)
		}
		if direct := r.SolverIterations == 0; direct != (c.want == circuit.DirectSparseND) {
			t.Errorf("RHS %d: %d solver iterations, want the %d kind", c.rhs, r.SolverIterations, c.want)
		}
	}
}

// TestNDMatchesTightPCG is the accuracy oracle for both solver kinds. On
// the coarse 8-layer V-S PDN (8 converters per core, 65% interleaved
// imbalance: the Headlines point), the reference is an AMG-PCG solve
// driven to a relative residual of 1e-15. ND's cell voltages must lie
// within 1e-10 V of it, and closer than the default solve's; the default
// solve (Auto with one right-hand side, which picks AMG-PCG at the
// default Tol) must lie within 1e-9 V.
func TestNDMatchesTightPCG(t *testing.T) {
	acts := InterleavedActivities(8, 16, 0.65)
	solve := func(so circuit.SolveOptions) *Result {
		cfg := vsCfg(8, 8)
		cfg.Solve = so
		return mustSolve(t, cfg, acts)
	}
	ref := solve(circuit.SolveOptions{Solver: circuit.PCGAMG, Tol: 1e-15})
	dist := func(r *Result) float64 {
		d := 0.0
		for l, layer := range r.CellVoltages {
			for c, v := range layer {
				d = math.Max(d, math.Abs(v-ref.CellVoltages[l][c]))
			}
		}
		return d
	}
	nd := dist(solve(circuit.SolveOptions{Solver: circuit.DirectSparseND}))
	def := dist(solve(circuit.SolveOptions{}))
	t.Logf("max cell-voltage distance from the Tol 1e-15 reference: ND %.2g V, default AMG-PCG %.2g V", nd, def)
	if nd > 1e-10 {
		t.Errorf("ND cell voltages are %g V from the reference, want <= 1e-10 V", nd)
	}
	if def > 1e-9 {
		t.Errorf("default solve's cell voltages are %g V from the reference, want <= 1e-9 V", def)
	}
	if nd >= def {
		t.Errorf("ND (%g V) is no closer to the reference than the default solve (%g V)", nd, def)
	}
}

// TestBatchJobAttribution: each entry of a 2-entry batch on a PDN above
// the direct edge (so Auto picks AMG-PCG) is its own solve in the job
// scope, and the scope's convergence record is the whole report of an
// entry with the most iterations.
func TestBatchJobAttribution(t *testing.T) {
	cfg := vsCfg(8, 4)
	cfg.Params.GridNx, cfg.Params.GridNy = 24, 24
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scope := telemetry.NewScope(telemetry.NewTrace())
	out, err := p.SolveBatchContext(telemetry.WithScope(context.Background(), scope),
		[][][]float64{InterleavedActivities(8, 16, 0.5), UniformActivities(8, 16, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := scope.Counter("job_pdn_solves_total").Value(); got != 2 {
		t.Errorf("job_pdn_solves_total = %d, want 2", got)
	}
	if got := scope.Counter("job_health_reports_total").Value(); got != 2 {
		t.Errorf("job_health_reports_total = %d, want 2 (both entries probed)", got)
	}
	rec := scope.Health().Load()
	if rec == nil || rec.Iterations != max(out[0].SolverIterations, out[1].SolverIterations) {
		t.Fatalf("scope record = %+v, want the iterations of the entry with the most (%d, %d)",
			rec, out[0].SolverIterations, out[1].SolverIterations)
	}
	if rec.FinalResidual != out[0].SolverResidual && rec.FinalResidual != out[1].SolverResidual {
		t.Errorf("scope record's residual %g is neither entry's (%g, %g)",
			rec.FinalResidual, out[0].SolverResidual, out[1].SolverResidual)
	}
	if len(rec.Residuals) == 0 || rec.ResidualIteration(len(rec.Residuals)-1) != rec.Iterations {
		t.Errorf("record's residual curve does not end at its own %d iterations", rec.Iterations)
	}
}

// TestSolveFailureCarriesReport forces a PCG non-convergence (two
// iterations against a 1e-16 target) and checks where the failed solve's
// evidence lands: the error still matches ErrNoConvergence, names the
// node count and carries the probe's residuals; ReportFromError gives the
// report of exactly the failed solve; and the job scope the solve ran
// under holds that report, though its counters count no solve.
func TestSolveFailureCarriesReport(t *testing.T) {
	cfg := vsCfg(3, 4)
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGAMG, Tol: 1e-16, MaxIter: 2}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scope := telemetry.NewScope(telemetry.NewTrace())
	_, err = p.SolveContext(telemetry.WithScope(context.Background(), scope), InterleavedActivities(3, 16, 0.5))
	if err == nil {
		t.Fatal("2-iteration budget converged; cannot exercise the failure path")
	}
	if !errors.Is(err, sparse.ErrNoConvergence) {
		t.Fatalf("errors.Is(ErrNoConvergence) lost through pdngrid's wrapping: %v", err)
	}
	nodes := p.assemble(nil).net.NumNodes()
	if want := fmt.Sprintf("pdngrid: %d-node linear solve: ", nodes); !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q does not start with %q", err, want)
	}
	if !strings.Contains(err.Error(), "[probe:") {
		t.Errorf("error lacks the probe's evidence: %v", err)
	}

	c := sparse.ReportFromError(err)
	if c == nil {
		t.Fatal("no convergence report attached to the error")
	}
	if c.Kind != "pcg" || c.MaxIter != 2 || c.Converged {
		t.Errorf("report kind=%q max_iter=%d converged=%v, want pcg/2/false", c.Kind, c.MaxIter, c.Converged)
	}
	// Iteration 0 plus both budgeted iterations.
	if len(c.Residuals) != 3 {
		t.Errorf("trajectory has %d points, want 3", len(c.Residuals))
	}
	if c.FinalResidual <= 1e-16 {
		t.Errorf("final residual %g claims convergence", c.FinalResidual)
	}
	if c.CondEstimate <= 0 {
		t.Errorf("cond_estimate = %g, want the Lanczos estimate of the two steps", c.CondEstimate)
	}

	if got := scope.Health().Load(); got != c {
		t.Errorf("scope record = %+v, want the failed solve's report", got)
	}
	if got := scope.Counter("job_pdn_solves_total").Value(); got != 0 {
		t.Errorf("job_pdn_solves_total = %d, want 0: a failed solve is in the record only", got)
	}
}
