package pdngrid

import (
	"context"
	"math"
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

// TestBatchJobAttribution: each entry of a 2-entry AMG-PCG batch is its
// own solve in the job scope, attributed in entry order once both finish.
// Every field of an exemplar belongs to one solve: its iterations, its
// residual, and a residual timeline numbered up to its own step count.
func TestBatchJobAttribution(t *testing.T) {
	cfg := vsCfg(3, 4)
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGAMG}
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
