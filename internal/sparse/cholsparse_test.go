package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// grid3D builds the conductance matrix of an nx x ny x nz resistor grid
// with unit conductances and a ground tie g on the diagonal — the
// structure of a stacked PDN.
func grid3D(nx, ny, nz int, g float64) *CSR {
	n := nx * ny * nz
	b := NewBuilder(n)
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y, z)
				b.Add(i, i, g)
				if x+1 < nx {
					j := idx(x+1, y, z)
					b.Add(i, i, 1)
					b.Add(j, j, 1)
					b.AddSym(i, j, -1)
				}
				if y+1 < ny {
					j := idx(x, y+1, z)
					b.Add(i, i, 1)
					b.Add(j, j, 1)
					b.AddSym(i, j, -1)
				}
				if z+1 < nz {
					j := idx(x, y, z+1)
					b.Add(i, i, 1)
					b.Add(j, j, 1)
					b.AddSym(i, j, -1)
				}
			}
		}
	}
	return b.ToCSR()
}

func TestEliminationTreeChain(t *testing.T) {
	// Tridiagonal matrix: etree is the chain i -> i+1.
	n := 6
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i+1 < n {
			b.AddSym(i, i+1, -1)
		}
	}
	parent := EliminationTree(b.ToCSR().Lower())
	for i := 0; i < n-1; i++ {
		if parent[i] != i+1 {
			t.Errorf("parent[%d] = %d, want %d", i, parent[i], i+1)
		}
	}
	if parent[n-1] != -1 {
		t.Errorf("root parent = %d", parent[n-1])
	}
}

func TestEliminationTreeArrow(t *testing.T) {
	// Arrow matrix (dense last row/col): every node's parent is n-1
	// except the root.
	n := 5
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 10)
		if i != n-1 {
			b.AddSym(i, n-1, -1)
		}
	}
	parent := EliminationTree(b.ToCSR().Lower())
	for i := 0; i < n-1; i++ {
		if parent[i] != n-1 {
			t.Errorf("parent[%d] = %d, want %d", i, parent[i], n-1)
		}
	}
}

// TestSparseCholAgainstDenseLU checks the sparse factorization under each
// ordering against a pivoted dense LU solve, which shares no code with it.
func TestSparseCholAgainstDenseLU(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, ord := range []Ordering{OrderND, OrderNatural} {
		a := gridLaplacian(12, 9, 0.2)
		bVec := randVec(a.N(), rng)
		d := NewDense(a.N())
		for i := 0; i < a.N(); i++ {
			a.Row(i, func(j int, v float64) { d.Set(i, j, v) })
		}
		lu, err := d.LU()
		if err != nil {
			t.Fatal(err)
		}
		want := lu.Solve(bVec)
		f, err := FactorSparse(a, ord)
		if err != nil {
			t.Fatalf("ordering %d: %v", ord, err)
		}
		got := f.Solve(bVec)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("ordering %d: x[%d] = %g, want %g", ord, i, got[i], want[i])
			}
		}
	}
}

func TestSparseCholRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		a := randomSPD(n, rng)
		xTrue := randVec(n, rng)
		bVec := make([]float64, n)
		a.MulVec(xTrue, bVec)
		f, err := FactorSparse(a, OrderND)
		if err != nil {
			t.Fatal(err)
		}
		x := f.Solve(bVec)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-7*math.Max(1, math.Abs(xTrue[i])) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestSparseChol3DGrid(t *testing.T) {
	a := grid3D(10, 10, 6, 0.1)
	rng := rand.New(rand.NewSource(5))
	bVec := randVec(a.N(), rng)
	f, err := FactorSparse(a, OrderND)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve(bVec)
	if res := residual(a, x, bVec); res > 1e-8 {
		t.Errorf("residual = %g", res)
	}
}

func TestSparseCholRejectsIndefinite(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.AddSym(0, 1, 2)
	b.Add(1, 1, 1)
	if _, err := FactorSparse(b.ToCSR(), OrderNatural); err == nil {
		t.Error("expected ErrNotPositiveDefinite")
	}
}

func TestNDIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := grid3D(2+rng.Intn(6), 2+rng.Intn(6), 1+rng.Intn(4), 0.5)
		perm := NestedDissection(a)
		seen := make([]bool, len(perm))
		for _, p := range perm {
			if p < 0 || p >= len(perm) || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNDHandlesDisconnected(t *testing.T) {
	// Two disjoint grids in one matrix.
	b := NewBuilder(80)
	edge := func(i, j int) {
		b.Add(i, i, 1)
		b.Add(j, j, 1)
		b.AddSym(i, j, -1)
	}
	addGrid := func(off int) {
		for i := 0; i < 40; i++ {
			b.Add(off+i, off+i, 0.5) // ground tie keeps it PD
			if (i+1)%8 != 0 {
				edge(off+i, off+i+1)
			}
			if i+8 < 40 {
				edge(off+i, off+i+8)
			}
		}
	}
	addGrid(0)
	addGrid(40)
	a := b.ToCSR()
	perm := NestedDissection(a)
	seen := make([]bool, 80)
	for _, p := range perm {
		seen[p] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d missing", i)
		}
	}
	if _, err := FactorSparse(a, OrderND); err != nil {
		t.Fatal(err)
	}
}

func TestNDReducesFillVersusNatural(t *testing.T) {
	a := grid3D(12, 12, 4, 0.1)
	fND, err := FactorSparse(a, OrderND)
	if err != nil {
		t.Fatal(err)
	}
	fNat, err := FactorSparse(a, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	if fND.NNZ() >= fNat.NNZ() {
		t.Errorf("ND fill %d should beat natural %d on a 3D grid", fND.NNZ(), fNat.NNZ())
	}
}

func TestSparseCholMultipleSolves(t *testing.T) {
	a := gridLaplacian(10, 10, 0.5)
	f, err := FactorSparse(a, OrderND)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	dst := make([]float64, a.N())
	for k := 0; k < 4; k++ {
		bVec := randVec(a.N(), rng)
		f.SolveTo(dst, bVec)
		if res := residual(a, dst, bVec); res > 1e-9 {
			t.Errorf("rhs %d: residual %g", k, res)
		}
	}
}

// TestSparseCholSolveToAllocs pins SolveTo at one allocation per call (the
// permuted work vector): transient stepping calls it once per time step.
func TestSparseCholSolveToAllocs(t *testing.T) {
	a := grid3D(6, 6, 3, 0.2)
	f, err := FactorSparse(a, OrderND)
	if err != nil {
		t.Fatal(err)
	}
	bVec := randVec(a.N(), rand.New(rand.NewSource(23)))
	dst := make([]float64, a.N())
	if allocs := testing.AllocsPerRun(20, func() { f.SolveTo(dst, bVec) }); allocs > 1 {
		t.Errorf("SolveTo: %v allocations per call, want <= 1", allocs)
	}
}

func TestSparseCholPropertyRandomGrids(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := grid3D(2+rng.Intn(7), 2+rng.Intn(7), 1+rng.Intn(3), 0.05+rng.Float64())
		bVec := randVec(a.N(), rng)
		fac, err := FactorSparse(a, OrderND)
		if err != nil {
			return false
		}
		return residual(a, fac.Solve(bVec), bVec) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSparseCholND3DGrid(b *testing.B) {
	a := grid3D(16, 16, 8, 0.1)
	for i := 0; i < b.N; i++ {
		if _, err := FactorSparse(a, OrderND); err != nil {
			b.Fatal(err)
		}
	}
}
