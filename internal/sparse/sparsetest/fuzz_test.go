package sparsetest

import (
	"math"
	"sort"
	"testing"

	"voltstack/internal/sparse"
)

// FuzzConcurrentSerialEquivalence fuzzes the concurrent-equals-serial
// bit-equality contract over the generator space: for any (seed, size,
// right-hand-side count, goroutine count), solves run by goroutines that
// share one nested-dissection sparse Cholesky factor and one AMG
// preconditioner (the only one with per-solve V-cycle scratch forks) must
// reproduce their serial counterparts exactly. The fuzzer hunts for
// scheduling- or scratch-sharing-dependent divergence that the fixed-case
// property tests might not reach.
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

		amg, err := sparse.NewAMG(a)
		if err != nil {
			t.Fatalf("seed=%d n=%d: %v", seed, n, err)
		}
		tol, maxIter := 1e-9, 40*n
		results := make([]sparse.CGResult, k)
		errs := make([]error, k)
		concurrently(workers, k, func(i int) {
			xs[i], results[i], errs[i] = sparse.PCG(a, bs[i], nil, amg, tol, maxIter, nil)
		})
		for i := range bs {
			if errs[i] != nil {
				t.Fatalf("amg concurrent seed=%d n=%d lane=%d: %v", seed, n, i, errs[i])
			}
			ref, refRes, err := sparse.PCG(a, bs[i], nil, amg, tol, maxIter, nil)
			if err != nil {
				t.Fatalf("amg serial seed=%d n=%d lane=%d: %v", seed, n, i, err)
			}
			if !sameResult(results[i], refRes) {
				t.Fatalf("amg seed=%d n=%d lane=%d: result %+v vs serial %+v",
					seed, n, i, results[i], refRes)
			}
			for j := range ref {
				if math.Float64bits(ref[j]) != math.Float64bits(xs[i][j]) {
					t.Fatalf("amg seed=%d n=%d k=%d workers=%d lane=%d elem=%d: %v vs %v",
						seed, n, k, workers, i, j, ref[j], xs[i][j])
				}
			}
		}
	})
}

// hubbedMesh returns the conductance matrix of an nx×ny×nz mesh
// (Grid3D) with hubs extra vertices interleaved at random indices, each
// tied to more mesh vertices than nested dissection's dense-row limit
// max(32, 8·(nnz/n + 1)) can reach — the shape of a PDN's package nodes,
// each tied to every C4 pad. It also returns the mesh alone (its vertices
// in the same relative order) and the hub indices, ascending.
func hubbedMesh(seed int64, nx, ny, nz, hubs int) (a, mesh *sparse.CSR, hubIdx []int) {
	rng := NewRand(seed)
	mesh = Grid3D(nx, ny, nz, 0.01)
	n := mesh.N()
	hubIdx = rng.Perm(n + hubs)[:hubs]
	sort.Ints(hubIdx)
	idx := make([]int, 0, n) // mesh vertex -> index in a
	for v, h := 0, 0; v < n+hubs; v++ {
		if h < hubs && hubIdx[h] == v {
			h++
			continue
		}
		idx = append(idx, v)
	}
	b := sparse.NewBuilder(n + hubs)
	for i := 0; i < n; i++ {
		mesh.Row(i, func(j int, v float64) { b.Add(idx[i], idx[j], v) })
	}
	// A hub of degree k adds 2k+1 entries, k <= n, so the limit is at
	// most 8·(nnz(mesh)/n + 2·hubs + 2); tie each hub to more than that.
	kMin := max(32, 8*(mesh.NNZ()/n+2*hubs+2)) + 1
	for _, h := range hubIdx {
		b.Add(h, h, 1e-3)
		for _, m := range rng.Perm(n)[:kMin+rng.Intn(n-kMin+1)] {
			g := 0.1 + 10*rng.Float64()
			b.Add(h, h, g)
			b.Add(idx[m], idx[m], g)
			b.AddSym(h, idx[m], -g)
		}
	}
	return b.ToCSR(), mesh, hubIdx
}

// FuzzNDHubOrdering fuzzes nested dissection's dense-row rule on a mesh
// with one to three hub vertices: the ordering is a permutation, the hubs
// take the last indices in ascending order, the mesh is dissected as if
// the hubs were absent (each hub row adds at most n mesh entries, the
// earlier hubs and its diagonal to the factor), and the factor solves
// the system to a relative residual of 1e-9.
func FuzzNDHubOrdering(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(6), uint8(14), uint8(2), uint8(1))
	f.Add(int64(-3), uint8(14), uint8(9), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nxRaw, nyRaw, nzRaw, hubsRaw uint8) {
		nx, ny, nz := 10+int(nxRaw)%15, 10+int(nyRaw)%15, 2+int(nzRaw)%3
		hubs := 1 + int(hubsRaw)%3
		a, mesh, hubIdx := hubbedMesh(seed, nx, ny, nz, hubs)
		n, nn := mesh.N(), a.N()
		limit := max(32, 8*(a.NNZ()/nn+1))
		for _, h := range hubIdx {
			if deg := rowLen(a, h) - 1; deg <= limit {
				t.Fatalf("generator: hub %d has degree %d, limit %d", h, deg, limit)
			}
		}

		perm := sparse.NestedDissection(a)
		seen := make([]bool, nn)
		for old, nw := range perm {
			if nw < 0 || nw >= nn || seen[nw] {
				t.Fatalf("seed=%d %dx%dx%d: perm[%d] = %d is not a permutation entry", seed, nx, ny, nz, old, nw)
			}
			seen[nw] = true
		}
		for i, h := range hubIdx {
			if want := nn - hubs + i; perm[h] != want {
				t.Fatalf("seed=%d %dx%dx%d: hub %d ordered at %d, want %d", seed, nx, ny, nz, h, perm[h], want)
			}
		}

		fa, err := sparse.FactorSparse(a, sparse.OrderND)
		if err != nil {
			t.Fatal(err)
		}
		fm, err := sparse.FactorSparse(mesh, sparse.OrderND)
		if err != nil {
			t.Fatal(err)
		}
		if bound := fm.NNZ() + hubs*n + hubs*(hubs+1)/2; fa.NNZ() > bound {
			t.Fatalf("seed=%d %dx%dx%d hubs=%d: nnz(L) = %d, want <= %d (mesh alone %d)",
				seed, nx, ny, nz, hubs, fa.NNZ(), bound, fm.NNZ())
		}

		rhs := RandomRHS(nn, seed)
		x := fa.Solve(rhs)
		r := make([]float64, nn)
		a.MulVec(x, r)
		sparse.Sub(rhs, r, r)
		if rel := sparse.Norm2(r) / sparse.Norm2(rhs); rel > 1e-9 {
			t.Fatalf("seed=%d %dx%dx%d hubs=%d: relative residual %g", seed, nx, ny, nz, hubs, rel)
		}
	})
}

func rowLen(a *sparse.CSR, i int) int {
	k := 0
	a.Row(i, func(int, float64) { k++ })
	return k
}
