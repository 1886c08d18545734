package sparse

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"voltstack/internal/telemetry"
)

// residual returns ‖b − A x‖∞.
func residual(a *CSR, x, b []float64) float64 {
	r := make([]float64, a.N())
	a.MulVec(x, r)
	Sub(b, r, r)
	return NormInf(r)
}

func randVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestCholeskySmallKnown(t *testing.T) {
	// [[4,2],[2,3]] has Cholesky L = [[2,0],[1,sqrt(2)]].
	b := NewBuilder(2)
	b.Add(0, 0, 4)
	b.AddSym(0, 1, 2)
	b.Add(1, 1, 3)
	a := b.ToCSR()
	f, err := FactorSparse(a, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve([]float64{8, 7})
	// Solution of [[4,2],[2,3]] x = [8,7] is x = [1.25, 1.5].
	if math.Abs(x[0]-1.25) > 1e-12 || math.Abs(x[1]-1.5) > 1e-12 {
		t.Errorf("x = %v, want [1.25, 1.5]", x)
	}
}

func TestCGUnpreconditioned(t *testing.T) {
	a := gridLaplacian(12, 12, 0.5)
	rng := rand.New(rand.NewSource(5))
	bVec := randVec(a.N(), rng)
	x, res, err := PCG(a, bVec, nil, nil, 1e-10, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, bVec); r > 1e-7 {
		t.Errorf("residual = %g after %d iters", r, res.Iterations)
	}
}

func TestPCGJacobiFasterOnScaledSystem(t *testing.T) {
	// Badly diagonally scaled SPD system: Jacobi should help a lot.
	n := 100
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		scale := math.Pow(10, float64(i%6))
		b.Add(i, i, 2*scale)
		if i+1 < n {
			b.AddSym(i, i+1, -0.5*math.Sqrt(scale))
		}
	}
	a := b.ToCSR()
	rng := rand.New(rand.NewSource(11))
	bVec := randVec(n, rng)

	_, plain, errPlain := PCG(a, bVec, nil, nil, 1e-10, 5000, nil)
	xj, jac, errJac := PCG(a, bVec, nil, NewJacobi(a), 1e-10, 5000, nil)
	if errJac != nil {
		t.Fatalf("jacobi: %v", errJac)
	}
	if r := residual(a, xj, bVec); r > 1e-5*NormInf(bVec) {
		t.Errorf("jacobi residual = %g", r)
	}
	if errPlain == nil && jac.Iterations > plain.Iterations {
		t.Errorf("Jacobi (%d iters) should not be slower than plain CG (%d)", jac.Iterations, plain.Iterations)
	}
}

func TestPCGIC0OnLaplacian(t *testing.T) {
	a := gridLaplacian(30, 30, 0.01)
	rng := rand.New(rand.NewSource(17))
	bVec := randVec(a.N(), rng)

	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	x, resIC, err := PCG(a, bVec, nil, ic, 1e-10, 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, bVec); r > 1e-6 {
		t.Errorf("IC0 residual = %g", r)
	}
	_, resCG, err := PCG(a, bVec, nil, nil, 1e-10, 20000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resIC.Iterations >= resCG.Iterations {
		t.Errorf("IC0 (%d iters) should beat plain CG (%d iters) on a Laplacian",
			resIC.Iterations, resCG.Iterations)
	}
}

func TestPCGAgreesWithCholesky(t *testing.T) {
	a := gridLaplacian(10, 14, 0.3)
	rng := rand.New(rand.NewSource(23))
	bVec := randVec(a.N(), rng)
	f, err := FactorSparse(a, OrderND)
	if err != nil {
		t.Fatal(err)
	}
	xd := f.Solve(bVec)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	xi, _, err := PCG(a, bVec, nil, ic, 1e-12, 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xd {
		if math.Abs(xd[i]-xi[i]) > 1e-6*math.Max(1, math.Abs(xd[i])) {
			t.Fatalf("solvers disagree at %d: chol %g vs pcg %g", i, xd[i], xi[i])
		}
	}
}

func TestPCGZeroRHS(t *testing.T) {
	a := gridLaplacian(5, 5, 1)
	x, res, err := PCG(a, make([]float64, a.N()), nil, nil, 1e-12, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if NormInf(x) != 0 || res.Iterations != 0 {
		t.Errorf("zero rhs should give zero solution immediately, got %v after %d", NormInf(x), res.Iterations)
	}
}

func TestPCGWarmStart(t *testing.T) {
	a := gridLaplacian(10, 10, 0.5)
	rng := rand.New(rand.NewSource(31))
	bVec := randVec(a.N(), rng)
	xCold, cold, err := PCG(a, bVec, nil, nil, 1e-10, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the exact solution should converge immediately.
	_, warm, err := PCG(a, bVec, xCold, nil, 1e-8, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > 2 {
		t.Errorf("warm start took %d iterations (cold %d)", warm.Iterations, cold.Iterations)
	}
}

func TestPCGNonConvergenceReported(t *testing.T) {
	a := gridLaplacian(20, 20, 1e-6)
	rng := rand.New(rand.NewSource(37))
	bVec := randVec(a.N(), rng)
	_, _, err := PCG(a, bVec, nil, nil, 1e-14, 2, nil)
	if err == nil {
		t.Error("expected ErrNoConvergence with 2-iteration budget")
	}
}

func TestDenseLUKnown(t *testing.T) {
	d := NewDense(3)
	vals := [][]float64{{2, 1, 1}, {4, -6, 0}, {-2, 7, 2}}
	for i := range vals {
		for j := range vals[i] {
			d.Set(i, j, vals[i][j])
		}
	}
	lu, err := d.LU()
	if err != nil {
		t.Fatal(err)
	}
	x := lu.Solve([]float64{5, -2, 9})
	want := []float64{1, 1, 2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x = %v, want %v", x, want)
			break
		}
	}
}

func TestDenseLUSingular(t *testing.T) {
	d := NewDense(2)
	d.Set(0, 0, 1)
	d.Set(0, 1, 2)
	d.Set(1, 0, 2)
	d.Set(1, 1, 4)
	if _, err := d.LU(); err == nil {
		t.Error("expected singular error")
	}
}

func TestDenseLURandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		d := NewDense(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d.Set(i, j, rng.NormFloat64())
			}
			d.Add(i, i, float64(n)) // diagonally dominant, nonsingular
		}
		xTrue := randVec(n, rng)
		bVec := make([]float64, n)
		d.MulVec(xTrue, bVec)
		lu, err := d.LU()
		if err != nil {
			t.Fatal(err)
		}
		x := lu.Solve(bVec)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-9*math.Max(1, math.Abs(xTrue[i])) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, x[i], xTrue[i])
			}
		}
	}
}

// indefinite2x2 is symmetric with eigenvalues 3 and -1: PCG breaks down on
// it (pᵀAp < 0) and IC(0) cannot factor it at any shift in the ladder.
func indefinite2x2() *CSR {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	b.AddSym(0, 1, 2)
	return b.ToCSR()
}

func TestIC0ShiftExhaustion(t *testing.T) {
	_, err := NewIC0(indefinite2x2())
	if err == nil {
		t.Fatal("IC(0) factored an indefinite matrix")
	}
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("errors.Is(ErrNotPositiveDefinite) lost: %v", err)
	}
	if !strings.Contains(err.Error(), "breakdown persists after") {
		t.Errorf("exhaustion error lacks shift count: %v", err)
	}
	if !strings.Contains(err.Error(), "row") {
		t.Errorf("exhaustion error lacks the failing row: %v", err)
	}
}

// TestIC0ShiftRecovery checks the shift ladder rescues a borderline
// matrix and counts its attempts in sparse_ic0_shift_attempts_total.
func TestIC0ShiftRecovery(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	before := mIC0Shifts.Value()

	// Slightly indefinite: unit diagonal with off-diagonal 1.01; a small
	// diagonal shift (the 1.6e-2 rung) makes it factorable.
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	b.AddSym(0, 1, 1.01)
	p, err := NewIC0(b.ToCSR())
	if err != nil {
		t.Fatalf("shift ladder failed to rescue: %v", err)
	}
	if p == nil {
		t.Fatal("nil preconditioner")
	}
	if n := mIC0Shifts.Value() - before; n <= 0 {
		t.Errorf("sparse_ic0_shift_attempts_total grew by %d, want > 0", n)
	}
}
