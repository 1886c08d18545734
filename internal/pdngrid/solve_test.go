package pdngrid

import (
	"context"
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/telemetry"
)

// TestConvergenceStatsPropagated asserts that the sparse-solver convergence
// effort (iterations, final residual) surfaces in Result, so callers can
// budget solver work and detect ill-conditioned meshes.
func TestConvergenceStatsPropagated(t *testing.T) {
	const tol = 1e-10
	cfg := vsCfg(3, 4)
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGIC0, Tol: tol}
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

// TestBatchJobAttribution: a probed 2-lane batch is one timed solve in
// the job scope. Its exemplar sums both lanes' iterations, but the
// residual timeline belongs to one lane, so ResidualIteration must number
// it up to that lane's step count, not the sum. The batch also sets
// job_solver_residual_last like a single solve.
func TestBatchJobAttribution(t *testing.T) {
	telemetry.EnableConvergenceProbes()
	defer telemetry.DisableConvergenceProbes()

	cfg := vsCfg(3, 4)
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGIC0}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scope := telemetry.NewScope(telemetry.NewTrace())
	out, err := p.SolveBatchContext(telemetry.WithScope(context.Background(), scope),
		[][][]float64{InterleavedActivities(3, 16, 0.5), UniformActivities(3, 16, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := scope.Counter("job_pdn_solves_total").Value(); got != 2 {
		t.Errorf("job_pdn_solves_total = %d, want 2", got)
	}
	if got := scope.Gauge("job_solver_residual_last").Value(); got != out[1].SolverResidual {
		t.Errorf("job_solver_residual_last = %g, want the last lane's %g", got, out[1].SolverResidual)
	}
	exs := scope.Exemplars().Snapshot()
	if len(exs) != 1 {
		t.Fatalf("got %d exemplars, want 1 for the batch", len(exs))
	}
	ex := exs[0]
	if want := out[0].SolverIterations + out[1].SolverIterations; ex.Iterations != want {
		t.Errorf("exemplar iterations = %d, want the lane sum %d", ex.Iterations, want)
	}
	if len(ex.Residuals) == 0 {
		t.Fatal("exemplar carries no residual timeline")
	}
	if got := ex.ResidualIteration(len(ex.Residuals) - 1); got != out[0].SolverIterations {
		t.Errorf("timeline ends at step %d, want lane 0's %d", got, out[0].SolverIterations)
	}
}
