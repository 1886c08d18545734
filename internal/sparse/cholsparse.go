package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization
// encounters a non-positive or numerically zero pivot.
var ErrNotPositiveDefinite = errors.New("sparse: matrix is not positive definite")

// pivotFloor is the smallest pivot FactorSparse accepts, relative to the
// original diagonal entry of its row. A pivot at or below it is rounding
// noise: the matrix is singular, as when a converter's top and bottom
// nodes reach the rest of the network only through the converter, and the
// factor would return voltages of order 1e15. Successful PDN factors stay
// above 1e-6 of their diagonal.
const pivotFloor = 1e-12

// Ordering selects the fill-reducing permutation used by SparseChol.
type Ordering int

const (
	// OrderND is nested dissection — the best choice for mesh-like
	// graphs (PDN and thermal grids).
	OrderND Ordering = iota
	// OrderNatural factors in the given order.
	OrderNatural
)

// SparseChol is a general sparse Cholesky factorization A = L·Lᵀ with
// fill-in, computed up-looking (row by row) using the elimination tree. It
// stores only the structural nonzeros plus fill.
type SparseChol struct {
	n    int
	perm []int // old -> new
	inv  []int // new -> old

	// Below-diagonal entries in compressed sparse columns: column j's
	// rows and values are colRow/colVal[colPtr[j]:colPtr[j+1]], rows
	// ascending.
	diag   []float64
	colPtr []int32
	colRow []int32
	colVal []float64
}

// cholSymbolic is the structural phase of FactorSparse: the
// fill-reducing permutation, the permuted lower triangle of the matrix,
// the elimination tree, and the factor's column pointers from its column
// counts. It stores no row patterns: the numeric phase walks each row's
// pattern from the tree as it goes.
type cholSymbolic struct {
	n    int
	perm []int
	inv  []int

	low    *CSR  // permuted lower triangle; factor fills in the values
	parent []int // elimination tree of low
	colPtr []int32
}

// FactorSparse computes the sparse Cholesky factorization of the SPD
// matrix a under the given ordering.
func FactorSparse(a *CSR, ord Ordering) (*SparseChol, error) {
	sym, err := analyzeChol(a, ord)
	if err != nil {
		return nil, err
	}
	return sym.factor(a)
}

// analyzeChol performs the symbolic phase of FactorSparse.
func analyzeChol(a *CSR, ord Ordering) (*cholSymbolic, error) {
	n := a.N()
	var perm []int
	switch ord {
	case OrderND:
		perm = NestedDissection(a)
	case OrderNatural:
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
	default:
		return nil, fmt.Errorf("sparse: unknown ordering %d", ord)
	}
	s := &cholSymbolic{n: n, perm: perm, inv: InvertPerm(perm)}

	// Permuted lower-triangle structure. Every stored entry of a keeps its
	// slot, zeros included, so the structure does not depend on values.
	lb := NewBuilder(n)
	lb.Grow(lowerEntries(a))
	for i := 0; i < n; i++ {
		pi := perm[i]
		a.Row(i, func(j int, _ float64) {
			if pj := perm[j]; pj <= pi {
				lb.Add(pi, pj, 1)
			}
		})
	}
	s.low = lb.ToCSR()

	// Elimination tree and factor column counts: column j holds every
	// row i whose pattern (with fill) contains j.
	s.parent = EliminationTree(s.low)
	mark := make([]int, n)
	stack := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	s.colPtr = make([]int32, n+1)
	counts := s.colPtr[1:]
	for i := 0; i < n; i++ {
		for _, j := range etreeReach(s.low, i, s.parent, mark, stack) {
			counts[j]++
		}
	}
	for j := 0; j < n; j++ {
		s.colPtr[j+1] += s.colPtr[j]
	}
	return s, nil
}

// entryIndex returns the val index of entry (i, j), or -1 if not stored.
func (m *CSR) entryIndex(i, j int) int {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if int(m.col[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < m.rowPtr[i+1] && int(m.col[lo]) == j {
		return lo
	}
	return -1
}

// factor is the numeric phase of FactorSparse on a, the matrix the
// symbolic phase analyzed. Row i's pattern comes from etreeReach in
// topological order; each entry l_ij lands at the filled end of column
// j, so every column's rows come out ascending.
func (s *cholSymbolic) factor(a *CSR) (*SparseChol, error) {
	n := s.n
	nnz := s.colPtr[n]
	f := &SparseChol{
		n:      n,
		perm:   s.perm,
		inv:    s.inv,
		diag:   make([]float64, n),
		colPtr: s.colPtr,
		colRow: make([]int32, nnz),
		colVal: make([]float64, nnz),
	}
	// Place a's values into the permuted lower triangle (entries are
	// unique, so placement is assignment).
	low := s.low
	for i := 0; i < n; i++ {
		pi := s.perm[i]
		a.Row(i, func(j int, v float64) {
			if pj := s.perm[j]; pj <= pi {
				low.val[low.entryIndex(pi, pj)] = v
			}
		})
	}

	// Up-looking numeric factorization.
	x := make([]float64, n)
	mark := make([]int, n)
	stack := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	cnt := make([]int32, n) // filled prefix of each factor column
	for i := 0; i < n; i++ {
		var aii float64
		low.Row(i, func(j int, v float64) {
			if j == i {
				aii = v
			} else {
				x[j] = v
			}
		})
		d := aii
		for _, j := range etreeReach(low, i, s.parent, mark, stack) {
			lij := x[j] / f.diag[j]
			x[j] = 0
			lo, fill := f.colPtr[j], f.colPtr[j]+cnt[j]
			rows := f.colRow[lo:fill]
			vals := f.colVal[lo:fill]
			for k := range rows {
				x[rows[k]] -= vals[k] * lij
			}
			d -= lij * lij
			f.colRow[fill] = int32(i)
			f.colVal[fill] = lij
			cnt[j]++
		}
		if d <= pivotFloor*aii || math.IsNaN(d) {
			return nil, fmt.Errorf("sparse: sparse Cholesky: %w at row %d of %d (diagonal %g after elimination, %g before)", ErrNotPositiveDefinite, i, n, d, aii)
		}
		f.diag[i] = math.Sqrt(d)
	}
	return f, nil
}

// N returns the system dimension.
func (f *SparseChol) N() int { return f.n }

// NNZ returns the number of stored factor entries including the diagonal.
func (f *SparseChol) NNZ() int { return f.n + len(f.colRow) }

// Solve returns x with A·x = b.
func (f *SparseChol) Solve(b []float64) []float64 {
	x := make([]float64, f.n)
	f.SolveTo(x, b)
	return x
}

// SolveTo is like Solve but writes into dst (len n); its one allocation is
// the permuted work vector.
func (f *SparseChol) SolveTo(dst, b []float64) {
	if len(b) != f.n || len(dst) != f.n {
		panic("sparse: Solve dimension mismatch")
	}
	y := PermuteVec(f.perm, b)
	// Forward: L y' = y (column-oriented sweep).
	for j := 0; j < f.n; j++ {
		y[j] /= f.diag[j]
		lo, hi := f.colPtr[j], f.colPtr[j+1]
		rows := f.colRow[lo:hi]
		vals := f.colVal[lo:hi]
		yj := y[j]
		for k := range rows {
			y[rows[k]] -= vals[k] * yj
		}
	}
	// Backward: Lᵀ x' = y'.
	for j := f.n - 1; j >= 0; j-- {
		lo, hi := f.colPtr[j], f.colPtr[j+1]
		rows := f.colRow[lo:hi]
		vals := f.colVal[lo:hi]
		s := y[j]
		for k := range rows {
			s -= vals[k] * y[rows[k]]
		}
		y[j] = s / f.diag[j]
	}
	for nw, old := range f.inv {
		dst[old] = y[nw]
	}
}
