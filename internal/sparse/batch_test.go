package sparse

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randBatch(n, k int, rng *rand.Rand) [][]float64 {
	bs := make([][]float64, k)
	for i := range bs {
		bs[i] = randVec(n, rng)
	}
	return bs
}

func sameVecBits(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: bit mismatch at %d: %v vs %v", name, i, a[i], b[i])
		}
	}
}

func TestSparseCholSolveBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := gridLaplacian(14, 14, 1e-3)
	f, err := FactorSparse(a, OrderND)
	if err != nil {
		t.Fatal(err)
	}
	bs := randBatch(a.N(), 9, rng)
	for _, workers := range []int{1, 2, 8} {
		xs := f.SolveBatchWorkers(bs, workers)
		for i := range bs {
			sameVecBits(t, "sparse-chol lane", f.Solve(bs[i]), xs[i])
		}
	}
}

func TestPCGBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := gridLaplacian(20, 15, 1e-3)
	n := a.N()
	bs := randBatch(n, 9, rng)

	ic0, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	amg, err := NewAMG(a, AMGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	precs := map[string]Preconditioner{
		"identity": IdentityPrec{},
		"jacobi":   NewJacobi(a),
		"ic0":      ic0,
		"amg":      amg,
	}
	for name, prec := range precs {
		// Serial reference lanes.
		ref := make([][]float64, len(bs))
		refRes := make([]CGResult, len(bs))
		for i := range bs {
			x, res, err := PCG(a, bs[i], nil, prec, 1e-10, 10*n, nil)
			if err != nil {
				t.Fatalf("%s serial lane %d: %v", name, i, err)
			}
			ref[i], refRes[i] = x, res
		}
		for _, workers := range []int{1, 2, 8} {
			ws := NewPCGBatchWorkspace(n, 4) // undersized on purpose: must grow
			xs, results, err := PCGBatch(a, bs, nil, prec, 1e-10, 10*n, ws, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			for i := range bs {
				sameVecBits(t, name+" lane", ref[i], xs[i])
				if results[i] != refRes[i] {
					t.Fatalf("%s workers=%d lane %d: result %+v vs serial %+v",
						name, workers, i, results[i], refRes[i])
				}
			}
		}
	}
}

func TestPCGBatchWarmStartsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := gridLaplacian(12, 12, 1e-3)
	n := a.N()
	bs := randBatch(n, 5, rng)
	x0s := randBatch(n, 5, rng)
	x0s[2] = nil // nil warm-start entries must be allowed
	prec := NewJacobi(a)
	for _, workers := range []int{1, 8} {
		xs, _, err := PCGBatch(a, bs, x0s, prec, 1e-10, 10*n, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bs {
			ref, _, err := PCG(a, bs[i], x0s[i], prec, 1e-10, 10*n, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameVecBits(t, "warm lane", ref, xs[i])
		}
	}
}

func TestPCGBatchReportsLowestLaneError(t *testing.T) {
	// Lane 1 gets an indefinite system and must break down; the other lanes
	// must still complete with valid results.
	a := indefinite2x2()
	bs := [][]float64{{0, 0}, {1, -1}, {0, 0}}
	xs, results, err := PCGBatch(a, bs, nil, nil, 1e-12, 50, nil, 2)
	if err == nil {
		t.Fatal("expected breakdown error from lane 1")
	}
	if !strings.Contains(err.Error(), "not SPD") {
		t.Fatalf("unexpected error: %v", err)
	}
	for _, i := range []int{0, 2} {
		if xs[i] == nil || results[i].Residual != 0 {
			t.Fatalf("zero-RHS lane %d should have solved exactly: %+v", i, results[i])
		}
	}
}

func TestPCGBreakdownIterationCountMatchesFusedPath(t *testing.T) {
	// Regression: the breakdown path used to report iteration `it` although
	// that iteration performed no x-update, disagreeing with the fused-norm
	// path (which counts only completed updates) and with the residual it
	// reports (computed from the it−1 iterate). Breakdown on the very first
	// iteration must report 0 iterations: the returned x is still x0.
	a := indefinite2x2()
	x, res, err := PCG(a, []float64{1, -1}, nil, nil, 1e-12, 50, nil)
	if err == nil {
		t.Fatal("expected breakdown on indefinite matrix")
	}
	if res.Iterations != 0 {
		t.Fatalf("first-iteration breakdown reported %d iterations, want 0", res.Iterations)
	}
	// x must be the (zero) initial iterate, consistent with the count…
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %g, want untouched initial guess", i, v)
		}
	}
	// …and the reported residual must be the true residual of that iterate.
	rhs := []float64{1, -1}
	ax := make([]float64, 2)
	a.MulVec(x, ax)
	Sub(rhs, ax, ax)
	if want := Norm2(ax) / Norm2(rhs); math.Float64bits(want) != math.Float64bits(res.Residual) {
		t.Fatalf("breakdown residual %v does not match iterate residual %v", res.Residual, want)
	}
}

func TestForkPreconditionerSafety(t *testing.T) {
	a := gridLaplacian(8, 8, 1e-3)
	ic0, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	if p, safe := forkPreconditioner(ic0); !safe {
		t.Fatal("IC0Prec should fork safely")
	} else if p == Preconditioner(ic0) {
		t.Fatal("IC0 fork must be a distinct instance")
	}
	if p, safe := forkPreconditioner(NewJacobi(a)); !safe || p == nil {
		t.Fatal("JacobiPrec is stateless-safe")
	}
	if _, safe := forkPreconditioner(IdentityPrec{}); !safe {
		t.Fatal("IdentityPrec is stateless-safe")
	}
	if _, safe := forkPreconditioner(unknownPrec{}); safe {
		t.Fatal("unknown preconditioners must force serial lanes")
	}
}

type unknownPrec struct{}

func (unknownPrec) Apply(r, z []float64) { copy(z, r) }
