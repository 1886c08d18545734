// Package sparse implements the sparse and dense linear algebra needed for
// power-delivery-network simulation: coordinate-format assembly, compressed
// sparse row storage, a nested-dissection-ordered sparse Cholesky direct
// solver, a conjugate-gradient solver with algebraic-multigrid
// preconditioning, and a small dense LU for switch-level converter
// simulation.
//
// All solvers target the symmetric positive definite conductance matrices
// produced by modified nodal analysis of resistive PDNs.
package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// Builder accumulates matrix entries in coordinate (COO) form. Duplicate
// entries for the same (row, col) are summed when converting to CSR, which
// is exactly the element-stamping discipline of circuit assembly.
type Builder struct {
	n    int
	rows []int32
	cols []int32
	vals []float64
}

// NewBuilder returns a Builder for an n x n matrix.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("sparse: negative dimension")
	}
	return &Builder{n: n}
}

// N returns the matrix dimension.
func (b *Builder) N() int { return b.n }

// NNZ returns the number of accumulated (possibly duplicate) entries.
func (b *Builder) NNZ() int { return len(b.vals) }

// Grow reserves room for m more entries, so that the next m Adds do not
// reallocate.
func (b *Builder) Grow(m int) {
	b.rows = slices.Grow(b.rows, m)
	b.cols = slices.Grow(b.cols, m)
	b.vals = slices.Grow(b.vals, m)
}

// Add accumulates v into entry (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of range for n=%d", i, j, b.n))
	}
	if v == 0 {
		return
	}
	b.rows = append(b.rows, int32(i))
	b.cols = append(b.cols, int32(j))
	b.vals = append(b.vals, v)
}

// AddSym accumulates a symmetric pair: v into (i, j) and (j, i).
// For i == j the value is added once.
func (b *Builder) AddSym(i, j int, v float64) {
	b.Add(i, j, v)
	if i != j {
		b.Add(j, i, v)
	}
}

// ToCSR converts the accumulated entries into compressed sparse row form,
// summing duplicates. The builder remains usable afterwards.
func (b *Builder) ToCSR() *CSR {
	n := b.n
	// Count entries per row.
	counts := make([]int, n+1)
	for _, r := range b.rows {
		counts[r+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	rowPtr := counts
	colTmp := make([]int32, len(b.vals))
	valTmp := make([]float64, len(b.vals))
	next := make([]int, n)
	copy(next, rowPtr[:n])
	for k := range b.vals {
		r := b.rows[k]
		p := next[r]
		colTmp[p] = b.cols[k]
		valTmp[p] = b.vals[k]
		next[r]++
	}
	// Sort each row by column and merge duplicates in place.
	outPtr := make([]int, n+1)
	outCol := make([]int32, 0, len(valTmp))
	outVal := make([]float64, 0, len(valTmp))
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		row := rowEntries{cols: colTmp[lo:hi], vals: valTmp[lo:hi]}
		sort.Sort(row)
		var lastCol int32 = -1
		for k := 0; k < row.Len(); k++ {
			c, v := row.cols[k], row.vals[k]
			if c == lastCol {
				outVal[len(outVal)-1] += v
			} else {
				outCol = append(outCol, c)
				outVal = append(outVal, v)
				lastCol = c
			}
		}
		outPtr[i+1] = len(outVal)
	}
	return &CSR{n: n, rowPtr: outPtr, col: outCol, val: outVal}
}

type rowEntries struct {
	cols []int32
	vals []float64
}

func (r rowEntries) Len() int           { return len(r.cols) }
func (r rowEntries) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r rowEntries) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// CSR is a compressed-sparse-row matrix. Entries within a row are stored in
// strictly increasing column order with duplicates merged.
type CSR struct {
	n      int
	rowPtr []int
	col    []int32
	val    []float64
}

// N returns the matrix dimension.
func (m *CSR) N() int { return m.n }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.val) }

// At returns the value at (i, j), zero if not stored. O(log rowlen).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic("sparse: At out of range")
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	cols := m.col[lo:hi]
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return m.val[lo+k]
	}
	return 0
}

// Row calls f(j, v) for every stored entry (i, j) = v of row i in
// increasing column order.
func (m *CSR) Row(i int, f func(j int, v float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		f(int(m.col[k]), m.val[k])
	}
}

// MulVec computes y = A*x. y must have length N and may not alias x.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.n || len(y) != m.n {
		panic("sparse: MulVec dimension mismatch")
	}
	val, col, ptr := m.val, m.col, m.rowPtr
	for i := 0; i < m.n; i++ {
		var s float64
		lo, hi := ptr[i], ptr[i+1]
		for k := lo; k < hi; k++ {
			s += val[k] * x[col[k]]
		}
		y[i] = s
	}
}

// Diag returns a copy of the main diagonal.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// lowerEntries is the number of entries in the lower triangle (diagonal
// included) of a under any symmetric permutation: exact for a symmetric
// structure with every diagonal entry stored, as an SPD matrix has.
func lowerEntries(a *CSR) int { return (a.NNZ() + a.n) / 2 }

// Lower returns the lower triangle (including diagonal) of m as a CSR.
func (m *CSR) Lower() *CSR {
	b := NewBuilder(m.n)
	for i := 0; i < m.n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if j := int(m.col[k]); j <= i {
				b.Add(i, j, m.val[k])
			}
		}
	}
	return b.ToCSR()
}

// String renders small matrices densely for debugging.
func (m *CSR) String() string {
	if m.n > 16 {
		return fmt.Sprintf("CSR{n=%d nnz=%d}", m.n, m.NNZ())
	}
	s := ""
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			s += fmt.Sprintf("%10.4g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
