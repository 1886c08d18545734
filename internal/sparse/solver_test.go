package sparse

import (
	"math"
	"math/rand"
	"testing"
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

func TestPCGAgreesWithCholesky(t *testing.T) {
	a := gridLaplacian(10, 14, 0.3)
	rng := rand.New(rand.NewSource(23))
	bVec := randVec(a.N(), rng)
	f, err := FactorSparse(a, OrderND)
	if err != nil {
		t.Fatal(err)
	}
	xd := f.Solve(bVec)
	mg, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	xi, _, err := PCG(a, bVec, nil, mg, 1e-12, 5000, nil)
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
// it (pᵀAp < 0).
func indefinite2x2() *CSR {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	b.AddSym(0, 1, 2)
	return b.ToCSR()
}
