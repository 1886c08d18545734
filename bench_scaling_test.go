// Node-count scaling pairs for the multi-RHS batch solvers. Each scenario
// solves the same 8 right-hand sides twice: the Serial variant pays the
// full per-RHS cost (factorization or preconditioner build + solve, the
// pattern of a caller without the batch API), the Batch variant sets up
// once and runs all lanes through SolveBatch/PCGBatch. The pair ratio is
// the amortization win at that node count:
//
//	go test -bench '^BenchmarkSolveScale' -run '^$' .
//	make bench-scaling   # renders serial/batch pairs into BENCH_solve.json
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

// --- IC(0)-preconditioned CG ---

func benchIC0Serial(b *testing.B, nx, ny int) {
	a, bs := scalingSystem(b, nx, ny)
	tol, maxIter := 1e-8, 10*a.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rhs := range bs {
			prec, err := sparse.NewIC0(a)
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

func benchIC0Batch(b *testing.B, nx, ny int) {
	a, bs := scalingSystem(b, nx, ny)
	tol, maxIter := 1e-8, 10*a.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prec, err := sparse.NewIC0(a)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sparse.PCGBatch(a, bs, nil, prec, tol, maxIter, nil, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportScale(b, a.N())
}

func BenchmarkSolveScaleIC0PCG10kSerial(b *testing.B) { benchIC0Serial(b, 100, 100) }
func BenchmarkSolveScaleIC0PCG10kBatch(b *testing.B)  { benchIC0Batch(b, 100, 100) }

func BenchmarkSolveScaleIC0PCG100kSerial(b *testing.B) { benchIC0Serial(b, 317, 317) }
func BenchmarkSolveScaleIC0PCG100kBatch(b *testing.B)  { benchIC0Batch(b, 317, 317) }

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
		f.SolveBatchWorkers(bs, 1)
	}
	reportScale(b, a.N())
}

func BenchmarkSolveScaleSparseChol10kSerial(b *testing.B) { benchCholSerial(b, 100, 100) }
func BenchmarkSolveScaleSparseChol10kBatch(b *testing.B)  { benchCholBatch(b, 100, 100) }

func BenchmarkSolveScaleSparseChol100kSerial(b *testing.B) { benchCholSerial(b, 317, 317) }
func BenchmarkSolveScaleSparseChol100kBatch(b *testing.B)  { benchCholBatch(b, 317, 317) }

// --- AMG-preconditioned CG, the 1M-node end of the curve ---

func benchAMGSerial(b *testing.B, nx, ny int) {
	if testing.Short() {
		b.Skip("1M-node mesh")
	}
	a, bs := scalingSystem(b, nx, ny)
	tol, maxIter := 1e-8, 10*a.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rhs := range bs {
			prec, err := sparse.NewAMG(a, sparse.AMGOptions{})
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
	if testing.Short() {
		b.Skip("1M-node mesh")
	}
	a, bs := scalingSystem(b, nx, ny)
	tol, maxIter := 1e-8, 10*a.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prec, err := sparse.NewAMG(a, sparse.AMGOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sparse.PCGBatch(a, bs, nil, prec, tol, maxIter, nil, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportScale(b, a.N())
}

func BenchmarkSolveScaleAMGPCG1MSerial(b *testing.B) { benchAMGSerial(b, 1000, 1000) }
func BenchmarkSolveScaleAMGPCG1MBatch(b *testing.B)  { benchAMGBatch(b, 1000, 1000) }
