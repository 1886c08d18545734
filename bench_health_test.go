// Probes-off/probes-on benchmark pair for the solver-health convergence
// probes. The pair rides in BENCH_solve.json next to the fresh/prepared
// pairs and is gated by `benchjson -diff` on two properties: the
// disabled-probe solve must stay as fast as the baseline relative to the
// enabled one (overhead ratio), and — via the reported allocs/op — the
// disabled path must stay allocation-free beyond the solve's own kernel
// closures. A change that allocates or measures before checking the
// probe gate shows up here immediately.
package voltstack_test

import (
	"testing"

	"voltstack/internal/sparse"
	"voltstack/internal/sparse/sparsetest"
	"voltstack/internal/telemetry"
)

func benchHealthProbes(b *testing.B, on bool) {
	a := sparsetest.Grid3D(12, 12, 6, 1e-3)
	n := a.N()
	rhs := sparsetest.RandomRHS(n, 5)
	ic0, err := sparse.NewIC0(a)
	if err != nil {
		b.Fatal(err)
	}
	ws := sparse.NewPCGWorkspace(n)
	if on {
		telemetry.EnableConvergenceProbes()
	} else {
		telemetry.DisableConvergenceProbes()
	}
	defer telemetry.DisableConvergenceProbes()
	// Warm-up: workspace buffers and the IC(0) schedule are steady-state
	// costs, not part of the per-solve comparison.
	if _, _, err := sparse.PCG(a, rhs, nil, ic0, 1e-10, 20*n, ws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sparse.PCG(a, rhs, nil, ic0, 1e-10, 20*n, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveHealthProbesOff is the baseline: the identical solve with
// the convergence probes disabled (the default).
func BenchmarkSolveHealthProbesOff(b *testing.B) { benchHealthProbes(b, false) }

// BenchmarkSolveHealthProbesOn runs the same solve with per-iteration
// residual/coefficient capture, condition estimation and detectors live.
func BenchmarkSolveHealthProbesOn(b *testing.B) { benchHealthProbes(b, true) }
