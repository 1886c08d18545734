// Solver-health probe properties: every PCG solve, at the sparse and
// circuit levels and at any goroutine count, carries a convergence report
// consistent with its result, and the condition estimates agree with the
// known spectrum of closed-form test systems.
package sparsetest

import (
	"fmt"
	"math"
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/sparse"
)

// precFor builds a fresh preconditioner of the given kind.
func precFor(t *testing.T, kind string, a *sparse.CSR) sparse.Preconditioner {
	t.Helper()
	switch kind {
	case "amg":
		p, err := sparse.NewAMG(a)
		if err != nil {
			t.Fatal(err)
		}
		return p
	case "identity":
		return sparse.IdentityPrec{}
	default:
		t.Fatalf("unknown prec kind %q", kind)
		return nil
	}
}

// TestPCGReportsEverySolve: every PCG solve, serial or run by goroutines
// sharing one preconditioner, carries a convergence report consistent
// with its result, for every matrix, preconditioner and goroutine count.
func TestPCGReportsEverySolve(t *testing.T) {
	const k = 4
	for label, a := range matrices() {
		n := a.N()
		b := RandomRHS(n, 99)
		bs := RandomBatch(n, k, 4242)
		tol, maxIter := 1e-10, 20*n
		for _, kind := range []string{"amg", "identity"} {
			for _, workers := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s %s workers=%d", label, kind, workers)

				_, res, err := sparse.PCG(a, b, nil, precFor(t, kind, a), tol, maxIter, sparse.NewPCGWorkspace(n))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				h := res.Health
				if h == nil {
					t.Fatalf("%s: no health report", name)
				}
				if !h.Converged || h.Iterations != res.Iterations || h.N != n {
					t.Fatalf("%s: health report inconsistent: %+v", name, h)
				}
				if len(h.Residuals) == 0 || h.Residuals[0] <= h.Residuals[len(h.Residuals)-1] {
					t.Fatalf("%s: residual history not decreasing: %v", name, h.Residuals)
				}
				if h.CondEstimate > 0 && (h.LambdaMin <= 0 || h.LambdaMax < h.LambdaMin) {
					t.Fatalf("%s: bad spectrum estimate: %+v", name, h)
				}

				prec := precFor(t, kind, a)
				results := make([]sparse.CGResult, k)
				errs := make([]error, k)
				concurrently(workers, k, func(i int) {
					_, results[i], errs[i] = sparse.PCG(a, bs[i], nil, prec, tol, maxIter, nil)
				})
				for i := range bs {
					if errs[i] != nil {
						t.Fatalf("%s lane %d: %v", name, i, errs[i])
					}
					h := results[i].Health
					if h == nil {
						t.Fatalf("%s lane %d: no health report", name, i)
					}
					if !h.Converged || h.Iterations != results[i].Iterations || h.N != n {
						t.Fatalf("%s lane %d: health report inconsistent: %+v", name, i, h)
					}
				}
			}
		}
	}
}

// TestProbesDoNotPerturbSystemSolves: with no telemetry set up, an
// AMG-PCG netlist solve carries its convergence report up to the
// circuit Solution.
func TestProbesDoNotPerturbSystemSolves(t *testing.T) {
	net := circuit.New()
	nodes := net.Nodes(12 * 12)
	idx := func(x, y int) int { return nodes[y*12+x] }
	for y := 0; y < 12; y++ {
		for x := 0; x < 12; x++ {
			if x+1 < 12 {
				net.AddResistor(idx(x, y), idx(x+1, y), 0.4)
			}
			if y+1 < 12 {
				net.AddResistor(idx(x, y), idx(x, y+1), 0.4)
			}
		}
	}
	net.AddRailTie(idx(0, 0), 0.01, 1.0)
	net.AddLoad(idx(11, 11), circuit.Ground, 0.02)
	sol, err := net.Solve(circuit.SolveOptions{Solver: circuit.PCGAMG})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Health == nil {
		t.Fatal("circuit solution carries no health report")
	}
}

// TestConditionEstimateKnownSpectrum checks the Lanczos-based estimates
// against closed-form ground truth: on a diagonal matrix with log-spaced
// eigenvalues in [lo, hi] and the identity preconditioner, cond(A) is
// exactly hi/lo. Ritz values approximate the spectrum from the inside,
// so the estimate must land in [lo, hi] and within the documented 10%
// of the true condition number (DESIGN.md §15).
func TestConditionEstimateKnownSpectrum(t *testing.T) {
	for _, tc := range []struct {
		n       int
		lo, hi  float64
		maxFrac float64 // allowed relative error on cond
	}{
		{n: 200, lo: 1, hi: 10, maxFrac: 0.10},
		{n: 400, lo: 0.01, hi: 10, maxFrac: 0.10},
	} {
		name := fmt.Sprintf("n=%d cond=%g", tc.n, tc.hi/tc.lo)
		a := DiagSPD(tc.n, tc.lo, tc.hi)
		b := RandomRHS(tc.n, 7)
		_, res, err := sparse.PCG(a, b, nil, nil, 1e-12, 10*tc.n, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := res.Health
		if h == nil || h.CondEstimate <= 0 {
			t.Fatalf("%s: no condition estimate (health %+v)", name, h)
		}
		const slack = 1e-6 // bisection tolerance on the Ritz extremes
		if h.LambdaMin < tc.lo*(1-slack) || h.LambdaMax > tc.hi*(1+slack) {
			t.Fatalf("%s: spectrum estimate [%g, %g] outside true [%g, %g]",
				name, h.LambdaMin, h.LambdaMax, tc.lo, tc.hi)
		}
		trueCond := tc.hi / tc.lo
		if rel := math.Abs(h.CondEstimate-trueCond) / trueCond; rel > tc.maxFrac {
			t.Fatalf("%s: cond estimate %g vs true %g (rel err %.3f > %.2f)",
				name, h.CondEstimate, trueCond, rel, tc.maxFrac)
		}
	}
}
