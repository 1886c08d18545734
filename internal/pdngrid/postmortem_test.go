package pdngrid

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/sparse"
	"voltstack/internal/telemetry"
)

// TestSolveFailureWritesPostmortem forces a PCG non-convergence (two
// iterations against a 1e-16 target) and checks the whole failure path: the
// returned error still matches ErrNoConvergence, names the artifact, and
// the artifact holds the convergence report of exactly the failed solve.
func TestSolveFailureWritesPostmortem(t *testing.T) {
	dir := t.TempDir()
	telemetry.SetPostmortemDir(dir)
	defer telemetry.SetPostmortemDir("")

	cfg := vsCfg(3, 4)
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGAMG, Tol: 1e-16, MaxIter: 2}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Solve(InterleavedActivities(3, 16, 0.5))
	if err == nil {
		t.Fatal("2-iteration budget converged; cannot exercise the failure path")
	}
	if !errors.Is(err, sparse.ErrNoConvergence) {
		t.Fatalf("errors.Is(ErrNoConvergence) lost through the post-mortem wrapper: %v", err)
	}
	if !strings.Contains(err.Error(), "post-mortem: ") {
		t.Fatalf("error does not point at the artifact: %v", err)
	}

	matches, err := filepath.Glob(filepath.Join(dir, "pdngrid-solve-*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no post-mortem artifact written (glob err %v)", err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var pm SolvePostmortem
	if err := json.Unmarshal(data, &pm); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if pm.Stage != "linear-solve" {
		t.Errorf("stage = %q", pm.Stage)
	}
	if pm.Nodes <= 0 {
		t.Errorf("nodes = %d", pm.Nodes)
	}
	if pm.Error == "" {
		t.Error("artifact lacks the error string")
	}
	c := pm.Convergence
	if c == nil {
		t.Fatal("artifact lacks the convergence report")
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
}

// TestSolvePostmortemOffByDefault pins that an un-flagged failing run
// writes no artifact and names none, while its error still carries the
// failed solve's convergence report.
func TestSolvePostmortemOffByDefault(t *testing.T) {
	if telemetry.PostmortemEnabled() {
		t.Fatal("post-mortem directory set at test entry")
	}
	cfg := vsCfg(3, 4)
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGAMG, Tol: 1e-16, MaxIter: 2}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Solve(InterleavedActivities(3, 16, 0.5))
	if !errors.Is(err, sparse.ErrNoConvergence) {
		t.Fatalf("want non-convergence, got %v", err)
	}
	if strings.Contains(err.Error(), "post-mortem") {
		t.Errorf("artifact path in error without -postmortem: %v", err)
	}
	if sparse.ReportFromError(err) == nil {
		t.Error("no convergence report attached to the error")
	}
}
