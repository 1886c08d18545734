package sparse

import (
	"errors"
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
	_, res, err := PCG(a, b, nil, NewJacobi(a), 1e-14, 3)
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
