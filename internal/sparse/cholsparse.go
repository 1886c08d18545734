package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization
// encounters a non-positive pivot.
var ErrNotPositiveDefinite = errors.New("sparse: matrix is not positive definite")

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
// the elimination tree, and the per-row factor patterns (including fill).
type cholSymbolic struct {
	n    int
	perm []int
	inv  []int

	low *CSR // permuted lower triangle; factor fills in the values

	patPtr []int32 // row i's factor pattern is pattern[patPtr[i]:patPtr[i+1]]
	patRow []int32 // concatenated patterns, topological order per row
	colPtr []int32 // factor column structure, as in SparseChol
	colRow []int32
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
	for i := 0; i < n; i++ {
		pi := perm[i]
		a.Row(i, func(j int, _ float64) {
			if pj := perm[j]; pj <= pi {
				lb.Add(pi, pj, 1)
			}
		})
	}
	s.low = lb.ToCSR()

	// Elimination tree and per-row factor patterns (with fill), stored in
	// the exact topological order the numeric phase consumes them in.
	parent := EliminationTree(s.low)
	mark := make([]int, n)
	stack := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	s.patPtr = make([]int32, n+1)
	counts := make([]int32, n)
	for i := 0; i < n; i++ {
		pattern := etreeReach(s.low, i, parent, mark, stack)
		s.patPtr[i+1] = s.patPtr[i] + int32(len(pattern))
		s.patRow = append(s.patRow, make([]int32, len(pattern))...)
		copy32(s.patRow[s.patPtr[i]:s.patPtr[i+1]], pattern)
		for _, j := range pattern {
			counts[j]++
		}
	}
	// Factor column structure: column j holds every row i whose pattern
	// contains j, in ascending row order (the order the numeric phase
	// emits them).
	s.colPtr = make([]int32, n+1)
	for j := 0; j < n; j++ {
		s.colPtr[j+1] = s.colPtr[j] + counts[j]
	}
	s.colRow = make([]int32, s.colPtr[n])
	next := counts // reused as each column's fill cursor
	copy(next, s.colPtr[:n])
	for i := 0; i < n; i++ {
		for _, j := range s.patRow[s.patPtr[i]:s.patPtr[i+1]] {
			s.colRow[next[j]] = int32(i)
			next[j]++
		}
	}
	return s, nil
}

func copy32(dst []int32, src []int) {
	for i, v := range src {
		dst[i] = int32(v)
	}
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
// symbolic phase analyzed.
func (s *cholSymbolic) factor(a *CSR) (*SparseChol, error) {
	n := s.n
	f := &SparseChol{
		n:      n,
		perm:   s.perm,
		inv:    s.inv,
		diag:   make([]float64, n),
		colPtr: s.colPtr,
		colRow: s.colRow,
		colVal: make([]float64, len(s.colRow)),
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

	// Up-looking numeric factorization over the symbolic patterns.
	x := make([]float64, n)
	cnt := make([]int32, n) // filled prefix of each factor column
	for i := 0; i < n; i++ {
		var d float64
		low.Row(i, func(j int, v float64) {
			if j == i {
				d = v
			} else {
				x[j] = v
			}
		})
		for _, j32 := range s.patRow[s.patPtr[i]:s.patPtr[i+1]] {
			j := int(j32)
			lij := x[j] / f.diag[j]
			x[j] = 0
			lo, fill := f.colPtr[j], f.colPtr[j]+cnt[j]
			rows := f.colRow[lo:fill]
			vals := f.colVal[lo:fill]
			for k := range rows {
				x[rows[k]] -= vals[k] * lij
			}
			d -= lij * lij
			f.colVal[fill] = lij
			cnt[j]++
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("sparse: sparse Cholesky: %w at row %d of %d (diagonal after elimination %g)", ErrNotPositiveDefinite, i, n, d)
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
