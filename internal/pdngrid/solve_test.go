package pdngrid

import (
	"testing"

	"voltstack/internal/circuit"
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
