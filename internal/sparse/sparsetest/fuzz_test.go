package sparsetest

import (
	"math"
	"testing"

	"voltstack/internal/sparse"
)

// FuzzBatchSerialEquivalence fuzzes the batch-equals-serial bit-equality
// contract over the generator space: for any (seed, size, lane count,
// worker count), a skyline SolveBatch and a Jacobi-preconditioned
// PCGBatch must reproduce their serial counterparts exactly. The fuzzer
// hunts for scheduling- or scratch-sharing-dependent divergence that the
// fixed-case property tests might not reach.
func FuzzBatchSerialEquivalence(f *testing.F) {
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

		chol, err := sparse.FactorCholesky(a)
		if err != nil {
			t.Fatalf("seed=%d n=%d: %v", seed, n, err)
		}
		xs := chol.SolveBatchWorkers(bs, workers)
		for i := range bs {
			ref := chol.Solve(bs[i])
			for j := range ref {
				if math.Float64bits(ref[j]) != math.Float64bits(xs[i][j]) {
					t.Fatalf("skyline seed=%d n=%d k=%d workers=%d lane=%d elem=%d: %v vs %v",
						seed, n, k, workers, i, j, ref[j], xs[i][j])
				}
			}
		}

		jac := sparse.NewJacobi(a)
		tol, maxIter := 1e-9, 40*n
		pxs, results, err := sparse.PCGBatch(a, bs, nil, jac, tol, maxIter, nil, workers)
		if err != nil {
			t.Fatalf("pcg batch seed=%d n=%d: %v", seed, n, err)
		}
		for i := range bs {
			ref, refRes, err := sparse.PCG(a, bs[i], nil, jac, tol, maxIter)
			if err != nil {
				t.Fatalf("pcg serial seed=%d n=%d lane=%d: %v", seed, n, i, err)
			}
			if results[i] != refRes {
				t.Fatalf("pcg seed=%d n=%d lane=%d: result %+v vs serial %+v",
					seed, n, i, results[i], refRes)
			}
			for j := range ref {
				if math.Float64bits(ref[j]) != math.Float64bits(pxs[i][j]) {
					t.Fatalf("pcg seed=%d n=%d k=%d workers=%d lane=%d elem=%d: %v vs %v",
						seed, n, k, workers, i, j, ref[j], pxs[i][j])
				}
			}
		}
	})
}
