// Node-count scaling pairs for multi-RHS solves on one factor. Each
// scenario solves the same 8 right-hand sides twice: the Serial variant
// pays the full per-RHS cost (factorization or preconditioner build +
// solve, the pattern of a caller that rebuilds per right-hand side), the
// Batch variant sets up once and solves every right-hand side against that
// one factor or preconditioner in a plain loop. The pair ratio is the
// amortization win at that node count:
//
//	go test -bench '^BenchmarkSolveScale' -run '^$' .
//	make bench-scaling   # renders the serial/batch pairs
//
// The curve spans 10k to 1M nodes on the PDN-shaped meshes from
// internal/sparse/sparsetest; the 1M AMG point is skipped under -short.
package voltstack_test

import (
	"testing"

	"voltstack/internal/sparse"
	"voltstack/internal/sparse/sparsetest"
)

const scalingLanes = 8

func scalingSystem(b *testing.B, nx, ny int) (*sparse.CSR, [][]float64) {
	b.Helper()
	a := sparsetest.Grid2D(nx, ny, 1e-3)
	return a, sparsetest.RandomBatch(a.N(), scalingLanes, 7)
}

func reportScale(b *testing.B, nodes int) {
	b.ReportMetric(float64(nodes), "nodes")
	b.ReportMetric(scalingLanes, "lanes")
}

// --- sparse Cholesky (nested dissection) ---

func benchCholSerial(b *testing.B, nx, ny int) {
	a, bs := scalingSystem(b, nx, ny)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rhs := range bs {
			f, err := sparse.FactorSparse(a, sparse.OrderND)
			if err != nil {
				b.Fatal(err)
			}
			f.Solve(rhs)
		}
	}
	reportScale(b, a.N())
}

func benchCholBatch(b *testing.B, nx, ny int) {
	a, bs := scalingSystem(b, nx, ny)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := sparse.FactorSparse(a, sparse.OrderND)
		if err != nil {
			b.Fatal(err)
		}
		for _, rhs := range bs {
			f.Solve(rhs)
		}
	}
	reportScale(b, a.N())
}

func BenchmarkSolveScaleSparseChol10kSerial(b *testing.B) { benchCholSerial(b, 100, 100) }
func BenchmarkSolveScaleSparseChol10kBatch(b *testing.B)  { benchCholBatch(b, 100, 100) }

func BenchmarkSolveScaleSparseChol100kSerial(b *testing.B) { benchCholSerial(b, 317, 317) }
func BenchmarkSolveScaleSparseChol100kBatch(b *testing.B)  { benchCholBatch(b, 317, 317) }

// --- AMG-preconditioned CG ---

func benchAMGSerial(b *testing.B, nx, ny int) {
	a, bs := scalingSystem(b, nx, ny)
	tol, maxIter := 1e-8, 10*a.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rhs := range bs {
			prec, err := sparse.NewAMG(a)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := sparse.PCG(a, rhs, nil, prec, tol, maxIter, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportScale(b, a.N())
}

func benchAMGBatch(b *testing.B, nx, ny int) {
	a, bs := scalingSystem(b, nx, ny)
	tol, maxIter := 1e-8, 10*a.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prec, err := sparse.NewAMG(a)
		if err != nil {
			b.Fatal(err)
		}
		for _, rhs := range bs {
			if _, _, err := sparse.PCG(a, rhs, nil, prec, tol, maxIter, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportScale(b, a.N())
}

func BenchmarkSolveScaleAMGPCG10kSerial(b *testing.B) { benchAMGSerial(b, 100, 100) }
func BenchmarkSolveScaleAMGPCG10kBatch(b *testing.B)  { benchAMGBatch(b, 100, 100) }

func BenchmarkSolveScaleAMGPCG100kSerial(b *testing.B) { benchAMGSerial(b, 317, 317) }
func BenchmarkSolveScaleAMGPCG100kBatch(b *testing.B)  { benchAMGBatch(b, 317, 317) }

// The 1M-node pair is skipped under -short, so the CI smoke stays quick.
func BenchmarkSolveScaleAMGPCG1MSerial(b *testing.B) { skipShort(b); benchAMGSerial(b, 1000, 1000) }
func BenchmarkSolveScaleAMGPCG1MBatch(b *testing.B)  { skipShort(b); benchAMGBatch(b, 1000, 1000) }

func skipShort(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-node mesh")
	}
}
