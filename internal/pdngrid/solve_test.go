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

// TestBatchJobAttribution: each entry of a probed 2-entry batch is its
// own solve in the job scope, attributed in entry order once both finish.
// Every field of an exemplar belongs to one solve: its iterations, its
// residual, and a residual timeline numbered up to its own step count.
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
	if got := scope.Histogram("job_linear_solve_seconds").Count(); got != 2 {
		t.Errorf("job_linear_solve_seconds has %d observations, want 2", got)
	}
	if got := scope.Gauge("job_solver_residual_last").Value(); got != out[1].SolverResidual {
		t.Errorf("job_solver_residual_last = %g, want entry 1's %g", got, out[1].SolverResidual)
	}
	exs := scope.Exemplars().Snapshot()
	if len(exs) != 2 {
		t.Fatalf("got %d exemplars, want one per entry", len(exs))
	}
	seen := map[int]bool{}
	for _, ex := range exs {
		i := 0
		if ex.Residual == out[1].SolverResidual {
			i = 1
		}
		if seen[i] || ex.Residual != out[i].SolverResidual {
			t.Fatalf("exemplar residual %g matches no unclaimed entry", ex.Residual)
		}
		seen[i] = true
		if ex.Iterations != out[i].SolverIterations {
			t.Errorf("entry %d exemplar iterations = %d, want %d", i, ex.Iterations, out[i].SolverIterations)
		}
		if len(ex.Residuals) == 0 {
			t.Fatalf("entry %d exemplar carries no residual timeline", i)
		}
		if got := ex.ResidualIteration(len(ex.Residuals) - 1); got != out[i].SolverIterations {
			t.Errorf("entry %d timeline ends at step %d, want %d", i, got, out[i].SolverIterations)
		}
	}
}
