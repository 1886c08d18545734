// Solver-health probe properties: enabling the convergence probes must
// not perturb a single bit of any solve at any layer (sparse, circuit,
// pdngrid) or goroutine count, the condition estimates must agree with the
// known spectrum of closed-form test systems, and a disabled probe must
// cost zero allocations.
package sparsetest

import (
	"fmt"
	"math"
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/pdngrid"
	"voltstack/internal/power"
	"voltstack/internal/sparse"
	"voltstack/internal/telemetry"
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

// withProbes runs f with the convergence probes forced to the given
// state, restoring the disabled default afterwards so the probe gate
// never leaks into other tests (several compare CGResult structs for
// equality, which a leftover Health pointer would break).
func withProbes(on bool, f func()) {
	if on {
		telemetry.EnableConvergenceProbes()
	} else {
		telemetry.DisableConvergenceProbes()
	}
	defer telemetry.DisableConvergenceProbes()
	f()
}

// TestProbesDoNotPerturbSparseSolves is the sparse-level half of the
// probes-don't-perturb contract: PCG with probes on, serial or run by
// goroutines sharing one preconditioner, is bit-identical to probes off
// for every matrix, preconditioner and goroutine count — and the probed
// solves actually carry a health report.
func TestProbesDoNotPerturbSparseSolves(t *testing.T) {
	const k = 4
	for label, a := range matrices() {
		n := a.N()
		b := RandomRHS(n, 99)
		bs := RandomBatch(n, k, 4242)
		tol, maxIter := 1e-10, 20*n
		for _, kind := range []string{"amg", "identity"} {
			for _, workers := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s %s workers=%d", label, kind, workers)

				var refX []float64
				var refRes sparse.CGResult
				withProbes(false, func() {
					var err error
					refX, refRes, err = sparse.PCG(a, b, nil, precFor(t, kind, a), tol, maxIter, sparse.NewPCGWorkspace(n))
					if err != nil {
						t.Fatalf("%s probes-off: %v", name, err)
					}
				})
				if refRes.Health != nil {
					t.Fatalf("%s: health report recorded with probes off", name)
				}

				withProbes(true, func() {
					x, res, err := sparse.PCG(a, b, nil, precFor(t, kind, a), tol, maxIter, sparse.NewPCGWorkspace(n))
					if err != nil {
						t.Fatalf("%s probes-on: %v", name, err)
					}
					mustBitEqual(t, name+" probes", refX, x)
					if res.Iterations != refRes.Iterations ||
						math.Float64bits(res.Residual) != math.Float64bits(refRes.Residual) {
						t.Fatalf("%s: result perturbed: %+v vs %+v", name, res, refRes)
					}
					h := res.Health
					if h == nil {
						t.Fatalf("%s: no health report with probes on", name)
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
					xs := make([][]float64, k)
					results := make([]sparse.CGResult, k)
					errs := make([]error, k)
					concurrently(workers, k, func(i int) {
						xs[i], results[i], errs[i] = sparse.PCG(a, bs[i], nil, prec, tol, maxIter, nil)
					})
					for i := range bs {
						if errs[i] != nil {
							t.Fatalf("%s lane %d probes-on: %v", name, i, errs[i])
						}
						var wantX []float64
						var wantRes sparse.CGResult
						withProbes(false, func() {
							var err error
							wantX, wantRes, err = sparse.PCG(a, bs[i], nil, precFor(t, kind, a), tol, maxIter, nil)
							if err != nil {
								t.Fatalf("%s lane %d probes-off: %v", name, i, err)
							}
						})
						mustBitEqual(t, fmt.Sprintf("%s concurrent lane %d", name, i), wantX, xs[i])
						if results[i].Iterations != wantRes.Iterations ||
							math.Float64bits(results[i].Residual) != math.Float64bits(wantRes.Residual) {
							t.Fatalf("%s lane %d perturbed: %+v vs %+v", name, i, results[i], wantRes)
						}
						if results[i].Health == nil {
							t.Fatalf("%s lane %d: no health report", name, i)
						}
					}
				})
			}
		}
	}
}

// TestProbesDoNotPerturbSystemSolves pins the circuit and pdngrid
// levels: full netlist and voltage-stacked PDN solves are bit-identical
// with probes on and off.
func TestProbesDoNotPerturbSystemSolves(t *testing.T) {
	build := func() *circuit.Netlist {
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
		return net
	}
	cores := power.Example16Core().NumCores()
	acts := pdngrid.InterleavedActivities(3, cores, 0.65)

	opts := circuit.SolveOptions{Solver: circuit.PCGAMG}

	var refV []float64
	withProbes(false, func() {
		ref, err := build().Solve(opts)
		if err != nil {
			t.Fatalf("circuit probes-off: %v", err)
		}
		refV = ref.Voltages()
	})
	withProbes(true, func() {
		sol, err := build().Solve(opts)
		if err != nil {
			t.Fatalf("circuit probes-on: %v", err)
		}
		mustBitEqual(t, "circuit", refV, sol.Voltages())
		if sol.Health == nil {
			t.Fatal("circuit solution carries no health report")
		}
	})

	var refPDN *pdngrid.Result
	mkPDN := func() *pdngrid.PDN {
		pdn, err := pdngrid.New(vsTestConfig(circuit.PCGAMG))
		if err != nil {
			t.Fatal(err)
		}
		return pdn
	}
	withProbes(false, func() {
		var err error
		refPDN, err = mkPDN().Solve(acts)
		if err != nil {
			t.Fatalf("pdn probes-off: %v", err)
		}
	})
	withProbes(true, func() {
		got, err := mkPDN().Solve(acts)
		if err != nil {
			t.Fatalf("pdn probes-on: %v", err)
		}
		pdnResultsBitEqual(t, "pdn", refPDN, got)
	})
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
		withProbes(true, func() {
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
		})
	}
}

// TestProbesZeroAllocWhenDisabled pins the disabled-probe cost at zero
// extra allocations. A warmed-workspace PCG solve allocates exactly one
// thing, the returned x (the fixed-block reduction closures stay on the
// stack), so the probe structures (ring buffers, Lanczos coefficient
// slices) would blow the budget the moment anything allocated before
// checking the gate.
func TestProbesZeroAllocWhenDisabled(t *testing.T) {
	a := Grid2D(16, 16, 1e-3)
	n := a.N()
	b := RandomRHS(n, 3)
	ws := sparse.NewPCGWorkspace(n)
	solve := func() {
		if _, _, err := sparse.PCG(a, b, nil, nil, 1e-8, 10*n, ws); err != nil {
			t.Fatal(err)
		}
	}
	withProbes(false, func() {
		solve() // warm the workspace
		if allocs := testing.AllocsPerRun(10, solve); allocs > 1 {
			t.Fatalf("probes disabled: %.1f allocs/solve, want 1 (the returned x) — the disabled probe path allocates", allocs)
		}
	})
	// Sanity check the other side of the gate: with probes on the same
	// solve records a report (the probe may allocate; that is the cost
	// the gate exists to avoid).
	withProbes(true, func() {
		_, res, err := sparse.PCG(a, b, nil, nil, 1e-8, 10*n, ws)
		if err != nil {
			t.Fatal(err)
		}
		if res.Health == nil {
			t.Fatal("probes enabled: no health report")
		}
	})
}
