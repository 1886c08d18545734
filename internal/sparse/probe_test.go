package sparse

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"voltstack/internal/telemetry"
)

// TestTridiagExtremeEigs checks the Sturm-bisection eigensolver against
// the closed-form spectrum of tridiag(-1, 2, -1): eigenvalues
// 2 - 2cos(kπ/(m+1)), extremes 2 ∓ √2 at m = 3.
func TestTridiagExtremeEigs(t *testing.T) {
	d := []float64{2, 2, 2}
	e := []float64{-1, -1}
	lo, hi := tridiagExtremeEigs(d, e)
	wantLo, wantHi := 2-math.Sqrt2, 2+math.Sqrt2
	if math.Abs(lo-wantLo) > 1e-9 || math.Abs(hi-wantHi) > 1e-9 {
		t.Fatalf("extremes [%.12f, %.12f], want [%.12f, %.12f]", lo, hi, wantLo, wantHi)
	}

	// A diagonal "tridiagonal" (no coupling) must return its extremes
	// exactly, including for a single entry.
	lo, hi = tridiagExtremeEigs([]float64{3, 7, 5}, []float64{0, 0})
	if math.Abs(lo-3) > 1e-9 || math.Abs(hi-7) > 1e-9 {
		t.Fatalf("diagonal extremes [%g, %g], want [3, 7]", lo, hi)
	}
	lo, hi = tridiagExtremeEigs([]float64{4}, nil)
	if math.Abs(lo-4) > 1e-9 || math.Abs(hi-4) > 1e-9 {
		t.Fatalf("single-entry extremes [%g, %g], want [4, 4]", lo, hi)
	}
}

// TestLanczosExtremesRejectsBadCoefficients: non-finite or non-positive
// CG coefficients (a breakdown in flight) must not produce an estimate.
func TestLanczosExtremesRejectsBadCoefficients(t *testing.T) {
	for name, tc := range map[string]struct {
		alphas, betas []float64
	}{
		"empty":          {nil, nil},
		"zero-alpha":     {[]float64{0}, nil},
		"negative-alpha": {[]float64{-1, 0.5}, []float64{0.1}},
		"nan-alpha":      {[]float64{math.NaN()}, nil},
		"inf-alpha":      {[]float64{math.Inf(1)}, nil},
		"negative-beta":  {[]float64{0.5, 0.5}, []float64{-0.1}},
	} {
		if _, _, _, ok := lanczosExtremes(tc.alphas, tc.betas); ok {
			t.Errorf("%s: expected rejection", name)
		}
	}
	// And a well-formed prefix still works: constant alpha=1/2, beta=0 is
	// the Lanczos image of the identity-preconditioned matrix 2I.
	lo, hi, m, ok := lanczosExtremes([]float64{0.5, 0.5, 0.5}, []float64{0, 0})
	if !ok || m != 3 || math.Abs(lo-2) > 1e-9 || math.Abs(hi-2) > 1e-9 {
		t.Fatalf("constant coefficients: got lo=%g hi=%g m=%d ok=%v, want [2,2] m=3", lo, hi, m, ok)
	}
}

// TestEnrichedNonConvergenceError: with probes on, a capped solve's error
// carries the recent residuals and the condition estimate, and still
// unwraps to ErrNoConvergence for programmatic handling.
func TestEnrichedNonConvergenceError(t *testing.T) {
	telemetry.EnableConvergenceProbes()
	defer telemetry.DisableConvergenceProbes()
	a := gridLaplacian(12, 12, 1e-6)
	b := make([]float64, a.N())
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	_, res, err := PCG(a, b, nil, NewJacobi(a), 1e-14, 3, nil)
	if err == nil {
		t.Fatal("expected non-convergence at maxIter=3")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("enrichment broke the error chain: %v", err)
	}
	if !strings.Contains(err.Error(), "probe:") || !strings.Contains(err.Error(), "recent residuals") {
		t.Fatalf("error not enriched: %v", err)
	}
	if res.Health == nil || res.Health.Converged {
		t.Fatalf("capped solve health: %+v", res.Health)
	}
}

// TestProbeResidualRing: the probe keeps the first ResidualHeadLen and the
// last ResidualTailLen residuals in iteration order, counts the elided
// middle, and a failed solve's error carries that report.
func TestProbeResidualRing(t *testing.T) {
	const head, tail = telemetry.ResidualHeadLen, telemetry.ResidualTailLen
	const total = head + tail + 100
	p := newConvProbe(gridLaplacian(2, 2, 1), IdentityPrec{}, 1e-9, 10)
	for i := 0; i < total; i++ {
		p.record(float64(i))
	}
	_, err := p.fail(CGResult{Iterations: total - 1, Residual: float64(total - 1)},
		fmt.Errorf("%w: synthetic", ErrNoConvergence))
	r := ReportFromError(err)
	if r == nil {
		t.Fatal("no report attached")
	}
	if got := len(r.Residuals); got != head+tail {
		t.Fatalf("kept %d residuals, want %d", got, head+tail)
	}
	if r.ResidualsDropped != 100 {
		t.Errorf("dropped = %d, want 100", r.ResidualsDropped)
	}
	// Head keeps the first residuals in order...
	for i := 0; i < head; i++ {
		if r.Residuals[i] != float64(i) {
			t.Fatalf("head[%d] = %g, want %d", i, r.Residuals[i], i)
		}
	}
	// ...and the tail keeps the final ones, still in iteration order.
	for i := 0; i < tail; i++ {
		want := float64(total - tail + i)
		if got := r.Residuals[head+i]; got != want {
			t.Fatalf("tail[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestPCGNonConvergenceAttachesReport(t *testing.T) {
	telemetry.EnableConvergenceProbes()
	defer telemetry.DisableConvergenceProbes()

	a := gridLaplacian(20, 20, 1e-6)
	b := make([]float64, a.N())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	const maxIter = 5
	_, res, err := PCG(a, b, nil, nil, 1e-14, maxIter, nil)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("errors.Is(ErrNoConvergence) lost through the probe error: %v", err)
	}
	r := ReportFromError(err)
	if r == nil {
		t.Fatal("non-convergence carried no report")
	}
	if r != res.Health {
		t.Error("the error's report is not the result's Health")
	}
	if r.Kind != "pcg" || r.N != a.N() || r.MaxIter != maxIter {
		t.Errorf("report shape = %q n=%d max_iter=%d, want pcg %d %d", r.Kind, r.N, r.MaxIter, a.N(), maxIter)
	}
	if r.Preconditioner != "identity" {
		t.Errorf("preconditioner = %q", r.Preconditioner)
	}
	if r.Converged || r.Iterations != maxIter || r.Iterations != res.Iterations {
		t.Errorf("converged=%v iterations=%d, want false %d", r.Converged, r.Iterations, maxIter)
	}
	// Iteration 0 plus one residual per iteration.
	if len(r.Residuals) != maxIter+1 {
		t.Errorf("trajectory has %d points, want %d", len(r.Residuals), maxIter+1)
	}
	if r.FinalResidual != res.Residual {
		t.Errorf("final residual %g != result %g", r.FinalResidual, res.Residual)
	}
	// The report must serialize: it is the post-mortem artifact payload.
	if _, err := json.Marshal(r); err != nil {
		t.Fatalf("report not serializable: %v", err)
	}
}

func TestPCGReportOffByDefault(t *testing.T) {
	if telemetry.ProbesEnabled() {
		t.Fatal("convergence probes enabled at test entry")
	}
	a := gridLaplacian(20, 20, 1e-6)
	b := make([]float64, a.N())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	_, res, err := PCG(a, b, nil, nil, 1e-14, 3, nil)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want non-convergence, got %v", err)
	}
	if r := ReportFromError(err); r != nil || res.Health != nil {
		t.Errorf("report recorded with the gate off: %+v", r)
	}
	if strings.Contains(err.Error(), "probe:") {
		t.Errorf("probe suffix with the gate off: %v", err)
	}
}

func TestPCGBreakdownReport(t *testing.T) {
	telemetry.EnableConvergenceProbes()
	defer telemetry.DisableConvergenceProbes()

	// b chosen so pᵀAp = bᵀAb = -2 < 0 on the very first iteration.
	_, _, err := PCG(indefinite2x2(), []float64{1, -1}, nil, IdentityPrec{}, 1e-12, 50, nil)
	if err == nil {
		t.Fatal("indefinite solve succeeded")
	}
	if errors.Is(err, ErrNoConvergence) {
		t.Fatalf("breakdown misclassified as non-convergence: %v", err)
	}
	r := ReportFromError(err)
	if r == nil {
		t.Fatal("breakdown carried no report")
	}
	if r.BreakdownIter != 1 {
		t.Errorf("breakdown iter = %d, want 1", r.BreakdownIter)
	}
	if !strings.Contains(err.Error(), "not SPD") || !strings.Contains(err.Error(), "[probe: recent residuals") {
		t.Errorf("breakdown error = %q", err)
	}
}

// TestProbedAMGSolveOnStatusz: a probed PCG-AMG solve publishes its
// hierarchy shape through /statusz's convergence report, which leaves the
// residual trajectory out.
func TestProbedAMGSolveOnStatusz(t *testing.T) {
	telemetry.EnableConvergenceProbes()
	defer telemetry.DisableConvergenceProbes()

	a := gridLaplacian(30, 30, 1e-3)
	prec, err := NewAMG(a, AMGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N())
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	_, res, err := PCG(a, b, nil, prec, 1e-10, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := telemetry.Status().Convergence
	if c == nil || c.AMG == nil || c.AMG.Levels < 2 {
		t.Fatalf("statusz convergence = %+v, want an AMG report with >= 2 levels", c)
	}
	if c.AMG.Levels != prec.Levels() || c.AMG.OperatorComplexity != res.Health.AMG.OperatorComplexity {
		t.Errorf("statusz AMG %+v does not match the solve's %+v", c.AMG, res.Health.AMG)
	}
	if c.Residuals != nil {
		t.Error("statusz carries the residual trajectory")
	}
	if len(res.Health.Residuals) == 0 {
		t.Error("statusz cleared the solve's own trajectory")
	}
}
