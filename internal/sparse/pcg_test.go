package sparse

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"voltstack/internal/parallel"
)

// cooEntry is a (row, col) slot of a deterministic COO insertion sequence.
type cooEntry struct{ i, j int }

// testPattern returns a grid-shaped COO sequence with duplicate entries
// (the stamping discipline) plus nonzero values for every slot.
func testPattern(nx, ny int, rng *rand.Rand) (entries []cooEntry, vals []float64, n int) {
	n = nx * ny
	idx := func(x, y int) int { return y*nx + x }
	add := func(i, j int, v float64) {
		entries = append(entries, cooEntry{i, j})
		vals = append(vals, v)
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			add(i, i, 0.5+rng.Float64())
			if x+1 < nx {
				j := idx(x+1, y)
				g := 0.5 + rng.Float64()
				add(i, i, g)
				add(j, j, g)
				add(i, j, -g)
				add(j, i, -g)
			}
			if y+1 < ny {
				j := idx(x, y+1)
				g := 0.5 + rng.Float64()
				add(i, i, g)
				add(j, j, g)
				add(i, j, -g)
				add(j, i, -g)
			}
		}
	}
	return entries, vals, n
}

func buildFrom(entries []cooEntry, vals []float64, n int) *Builder {
	b := NewBuilder(n)
	for t, e := range entries {
		b.Add(e.i, e.j, vals[t])
	}
	return b
}

func sameFloats(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: entry %d differs bitwise: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// sameResult reports whether two solves agree in iteration count and
// residual and produced equal convergence reports.
func sameResult(a, b CGResult) bool {
	return a.Iterations == b.Iterations && a.Residual == b.Residual && reflect.DeepEqual(a.Health, b.Health)
}

func TestPCGWorkspaceReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	entries, vals, n := testPattern(14, 10, rng)
	a := buildFrom(entries, vals, n).ToCSR()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	prec, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	xFresh, resFresh, err := PCG(a, b, nil, prec, 1e-10, 10*n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewPCGWorkspace(n)
	// Dirty the workspace with an unrelated solve, then repeat the solve:
	// the result must not depend on workspace history.
	if _, _, err := PCG(a, b, b, prec, 1e-10, 10*n, ws); err != nil {
		t.Fatal(err)
	}
	xWs, resWs, err := PCG(a, b, nil, prec, 1e-10, 10*n, ws)
	if err != nil {
		t.Fatal(err)
	}
	if resFresh.Iterations != resWs.Iterations {
		t.Fatalf("iterations %d vs %d", resFresh.Iterations, resWs.Iterations)
	}
	sameFloats(t, "x", xFresh, xWs)
}

func TestPCGBreakdownReportsCurrentResidual(t *testing.T) {
	// Symmetric indefinite matrix: CG must break down with pᵀAp ≤ 0 and
	// report the true residual of the iterate it returns.
	b2 := NewBuilder(2)
	b2.Add(0, 0, 1)
	b2.Add(1, 1, -1)
	a := b2.ToCSR()
	rhs := []float64{1, 1}
	x, res, err := PCG(a, rhs, nil, nil, 1e-12, 50, nil)
	if err == nil {
		t.Fatal("expected breakdown error on indefinite matrix")
	}
	ax := make([]float64, 2)
	a.MulVec(x, ax)
	Sub(rhs, ax, ax)
	want := Norm2(ax) / Norm2(rhs)
	if math.Float64bits(want) != math.Float64bits(res.Residual) {
		t.Fatalf("breakdown residual %v does not match recomputed %v", res.Residual, want)
	}
}

func randBatch(n, k int, rng *rand.Rand) [][]float64 {
	bs := make([][]float64, k)
	for i := range bs {
		bs[i] = randVec(n, rng)
	}
	return bs
}

// concurrently runs fn(0) … fn(k-1) on the given number of goroutines,
// which share everything fn closes over, and waits for all of them.
func concurrently(workers, k int, fn func(i int)) {
	_ = parallel.NewPool(workers).ForEachN(context.Background(), k, func(i int) error {
		fn(i)
		return nil
	})
}

// TestPCGBatchMatchesSerial: a batch of right-hand sides solved by 1, 2
// and 8 goroutines sharing one matrix and one preconditioner is
// bit-identical, x and CGResult, to serial solves of each right-hand side.
func TestPCGBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := gridLaplacian(20, 15, 1e-3)
	n := a.N()
	bs := randBatch(n, 9, rng)

	amg, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	precs := map[string]Preconditioner{
		"identity": IdentityPrec{},
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
			xs := make([][]float64, len(bs))
			results := make([]CGResult, len(bs))
			errs := make([]error, len(bs))
			concurrently(workers, len(bs), func(i int) {
				xs[i], results[i], errs[i] = PCG(a, bs[i], nil, prec, 1e-10, 10*n, NewPCGWorkspace(n))
			})
			for i := range bs {
				if errs[i] != nil {
					t.Fatalf("%s workers=%d lane %d: %v", name, workers, i, errs[i])
				}
				sameFloats(t, name+" lane", ref[i], xs[i])
				if !sameResult(results[i], refRes[i]) {
					t.Fatalf("%s workers=%d lane %d: result %+v vs serial %+v",
						name, workers, i, results[i], refRes[i])
				}
			}
		}
	}
}

// TestPCGBatchWarmStartsMatchSerial: goroutines sharing one
// preconditioner, each passing its own warm start x0 (nil included),
// match serial solves from the same x0.
func TestPCGBatchWarmStartsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := gridLaplacian(12, 12, 1e-3)
	n := a.N()
	bs := randBatch(n, 5, rng)
	x0s := randBatch(n, 5, rng)
	x0s[2] = nil // nil warm-start entries must be allowed
	prec, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		xs := make([][]float64, len(bs))
		results := make([]CGResult, len(bs))
		errs := make([]error, len(bs))
		concurrently(workers, len(bs), func(i int) {
			xs[i], results[i], errs[i] = PCG(a, bs[i], x0s[i], prec, 1e-10, 10*n, nil)
		})
		for i := range bs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			ref, refRes, err := PCG(a, bs[i], x0s[i], prec, 1e-10, 10*n, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "warm lane", ref, xs[i])
			if !sameResult(results[i], refRes) {
				t.Fatalf("workers=%d lane %d: result %+v vs serial %+v", workers, i, results[i], refRes)
			}
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
