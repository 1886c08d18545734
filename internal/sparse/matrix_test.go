package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gridLaplacian builds the conductance matrix of an nx x ny resistor grid
// with unit conductances plus a ground tie g on every diagonal, which makes
// it strictly positive definite. This is the canonical PDN-shaped matrix.
func gridLaplacian(nx, ny int, g float64) *CSR {
	n := nx * ny
	b := NewBuilder(n)
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			b.Add(i, i, g)
			if x+1 < nx {
				j := idx(x+1, y)
				b.Add(i, i, 1)
				b.Add(j, j, 1)
				b.AddSym(i, j, -1)
			}
			if y+1 < ny {
				j := idx(x, y+1)
				b.Add(i, i, 1)
				b.Add(j, j, 1)
				b.AddSym(i, j, -1)
			}
		}
	}
	return b.ToCSR()
}

// randomSPD builds a random dense SPD matrix of size n as a CSR.
func randomSPD(n int, rng *rand.Rand) *CSR {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.NormFloat64()
		}
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[k][i] * a[k][j]
			}
			if i == j {
				s += float64(n)
			}
			b.Add(i, j, s)
		}
	}
	return b.ToCSR()
}

func TestBuilderDuplicatesSummed(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1, 2.5)
	b.Add(0, 1, 1.5)
	b.Add(2, 2, -1)
	b.Add(2, 2, 3)
	m := b.ToCSR()
	if got := m.At(0, 1); got != 4.0 {
		t.Errorf("At(0,1) = %g, want 4", got)
	}
	if got := m.At(2, 2); got != 2.0 {
		t.Errorf("At(2,2) = %g, want 2", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("At(1,0) = %g, want 0", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestBuilderZeroIgnored(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 0)
	if b.NNZ() != 0 {
		t.Errorf("zero entry should be dropped, NNZ=%d", b.NNZ())
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	b := NewBuilder(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b.Add(2, 0, 1)
}

func TestAddSym(t *testing.T) {
	b := NewBuilder(3)
	b.AddSym(0, 2, -3)
	b.AddSym(1, 1, 5)
	m := b.ToCSR()
	if m.At(0, 2) != -3 || m.At(2, 0) != -3 {
		t.Error("AddSym off-diagonal wrong")
	}
	if m.At(1, 1) != 5 {
		t.Error("AddSym diagonal should be added once")
	}
}

func TestCSRRowOrderSorted(t *testing.T) {
	b := NewBuilder(4)
	b.Add(1, 3, 1)
	b.Add(1, 0, 2)
	b.Add(1, 2, 3)
	m := b.ToCSR()
	var cols []int
	m.Row(1, func(j int, _ float64) { cols = append(cols, j) })
	want := []int{0, 2, 3}
	if len(cols) != len(want) {
		t.Fatalf("row 1 cols = %v", cols)
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Errorf("row 1 cols = %v, want %v", cols, want)
			break
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomSPD(12, rng)
	x := make([]float64, 12)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 12)
	m.MulVec(x, y)
	for i := 0; i < 12; i++ {
		var want float64
		for j := 0; j < 12; j++ {
			want += m.At(i, j) * x[j]
		}
		if math.Abs(y[i]-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("MulVec[%d] = %g, want %g", i, y[i], want)
		}
	}
}

func TestLaplacianRowSums(t *testing.T) {
	// Without the ground tie, every row of a Laplacian sums to zero.
	m := gridLaplacian(5, 4, 0)
	ones := make([]float64, m.N())
	for i := range ones {
		ones[i] = 1
	}
	y := make([]float64, m.N())
	m.MulVec(ones, y)
	if NormInf(y) > 1e-12 {
		t.Errorf("Laplacian * 1 = %g, want 0", NormInf(y))
	}
}

func TestLowerTriangle(t *testing.T) {
	m := gridLaplacian(3, 3, 1)
	l := m.Lower()
	for i := 0; i < m.N(); i++ {
		l.Row(i, func(j int, v float64) {
			if j > i {
				t.Errorf("Lower has upper entry (%d,%d)", i, j)
			}
			if v != m.At(i, j) {
				t.Errorf("Lower(%d,%d) = %g, want %g", i, j, v, m.At(i, j))
			}
		})
	}
}

func TestDiag(t *testing.T) {
	m := gridLaplacian(3, 2, 2)
	d := m.Diag()
	for i, v := range d {
		if v != m.At(i, i) {
			t.Errorf("Diag[%d] = %g, want %g", i, v, m.At(i, i))
		}
	}
}

func TestMulVecPropertyLinear(t *testing.T) {
	// A(x+y) = Ax + Ay for random small vectors.
	m := gridLaplacian(4, 3, 1)
	n := m.N()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		xy := make([]float64, n)
		for i := range xy {
			xy[i] = x[i] + y[i]
		}
		ax, ay, axy := make([]float64, n), make([]float64, n), make([]float64, n)
		m.MulVec(x, ax)
		m.MulVec(y, ay)
		m.MulVec(xy, axy)
		for i := range axy {
			if math.Abs(axy[i]-ax[i]-ay[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Errorf("Dot = %g", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %g", got)
	}
	if got := NormInf([]float64{-7, 2}); got != 7 {
		t.Errorf("NormInf = %g", got)
	}
	s := make([]float64, 3)
	Sub(y, x, s)
	if s[0] != 3 || s[1] != 3 || s[2] != 3 {
		t.Errorf("Sub = %v", s)
	}
}
