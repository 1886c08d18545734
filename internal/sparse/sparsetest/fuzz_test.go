package sparsetest

import (
	"math"
	"testing"

	"voltstack/internal/sparse"
)

// FuzzConcurrentSerialEquivalence fuzzes the concurrent-equals-serial
// bit-equality contract over the generator space: for any (seed, size,
// right-hand-side count, goroutine count), solves run by goroutines that
// share one nested-dissection sparse Cholesky factor, one Jacobi and one
// IC(0) preconditioner must reproduce their serial counterparts exactly.
// The fuzzer hunts for scheduling- or scratch-sharing-dependent divergence
// that the fixed-case property tests might not reach.
func FuzzConcurrentSerialEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), uint8(1))
	f.Add(int64(42), uint8(60), uint8(8), uint8(2))
	f.Add(int64(-7), uint8(1), uint8(1), uint8(8))
	f.Add(int64(9999), uint8(120), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw, wRaw uint8) {
		n := 1 + int(nRaw)%160
		k := 1 + int(kRaw)%10
		workers := 1 + int(wRaw)%8
		a := RandomSPD(n, 3, seed)
		bs := RandomBatch(n, k, seed+1)

		chol, err := sparse.FactorSparse(a, sparse.OrderND)
		if err != nil {
			t.Fatalf("seed=%d n=%d: %v", seed, n, err)
		}
		xs := make([][]float64, k)
		concurrently(workers, k, func(i int) { xs[i] = chol.Solve(bs[i]) })
		for i := range bs {
			ref := chol.Solve(bs[i])
			for j := range ref {
				if math.Float64bits(ref[j]) != math.Float64bits(xs[i][j]) {
					t.Fatalf("sparse-chol seed=%d n=%d k=%d workers=%d lane=%d elem=%d: %v vs %v",
						seed, n, k, workers, i, j, ref[j], xs[i][j])
				}
			}
		}

		ic0, err := sparse.NewIC0(a)
		if err != nil {
			t.Fatalf("seed=%d n=%d: %v", seed, n, err)
		}
		tol, maxIter := 1e-9, 40*n
		for pname, prec := range map[string]sparse.Preconditioner{"jacobi": sparse.NewJacobi(a), "ic0": ic0} {
			results := make([]sparse.CGResult, k)
			errs := make([]error, k)
			concurrently(workers, k, func(i int) {
				xs[i], results[i], errs[i] = sparse.PCG(a, bs[i], nil, prec, tol, maxIter, nil)
			})
			for i := range bs {
				if errs[i] != nil {
					t.Fatalf("%s concurrent seed=%d n=%d lane=%d: %v", pname, seed, n, i, errs[i])
				}
				ref, refRes, err := sparse.PCG(a, bs[i], nil, prec, tol, maxIter, nil)
				if err != nil {
					t.Fatalf("%s serial seed=%d n=%d lane=%d: %v", pname, seed, n, i, err)
				}
				if results[i] != refRes {
					t.Fatalf("%s seed=%d n=%d lane=%d: result %+v vs serial %+v",
						pname, seed, n, i, results[i], refRes)
				}
				for j := range ref {
					if math.Float64bits(ref[j]) != math.Float64bits(xs[i][j]) {
						t.Fatalf("%s seed=%d n=%d k=%d workers=%d lane=%d elem=%d: %v vs %v",
							pname, seed, n, k, workers, i, j, ref[j], xs[i][j])
					}
				}
			}
		}
	})
}
