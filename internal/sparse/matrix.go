// Package sparse implements the sparse and dense linear algebra needed for
// power-delivery-network simulation: coordinate-format assembly, compressed
// sparse row storage, a nested-dissection-ordered sparse Cholesky direct
// solver, conjugate-gradient iterative solvers with Jacobi,
// incomplete-Cholesky and algebraic-multigrid preconditioning, and a small
// dense LU for switch-level converter simulation.
//
// All solvers target the symmetric positive definite conductance matrices
// produced by modified nodal analysis of resistive PDNs.
package sparse

import (
	"fmt"
	"math"
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

// CooValues exposes the accumulated entry values in Add order (zero adds
// excluded, duplicates not merged). Treat as read-only: the slice backs the
// builder. It lets a caller that already stamped a builder seed a value
// array for later AssemblyMap.Fold restamps without re-stamping.
func (b *Builder) CooValues() []float64 { return b.vals }

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
	m, _ := b.toCSR(false)
	return m
}

// AssemblyMap records how a Builder's COO entries fold into the CSR value
// array: entry order[t] of the COO stream is the t-th term accumulated, and
// it lands in val[dst[t]]. Replaying Fold with updated COO values performs
// the exact floating-point accumulation sequence of ToCSR, so a value-only
// re-assembly is bit-identical to rebuilding the matrix from scratch —
// without re-sorting or reallocating anything.
type AssemblyMap struct {
	order []int32 // COO entry indices in CSR merge order
	dst   []int32 // CSR val index receiving each ordered entry
	nnz   int     // CSR nonzero count
}

// ToCSRIndexed is ToCSR plus the assembly map needed to restamp values
// later. The returned CSR is bit-identical to ToCSR's.
func (b *Builder) ToCSRIndexed() (*CSR, *AssemblyMap) {
	return b.toCSR(true)
}

// Fold re-accumulates cooVals (indexed as the builder's insertion order)
// into csrVal, replicating ToCSR's merge arithmetic exactly.
func (m *AssemblyMap) Fold(cooVals, csrVal []float64) {
	if len(csrVal) != m.nnz {
		panic("sparse: AssemblyMap.Fold dimension mismatch")
	}
	for i := range csrVal {
		csrVal[i] = 0
	}
	for t, k := range m.order {
		csrVal[m.dst[t]] += cooVals[k]
	}
}

func (b *Builder) toCSR(indexed bool) (*CSR, *AssemblyMap) {
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
	var idxTmp []int32
	if indexed {
		idxTmp = make([]int32, len(b.vals))
	}
	next := make([]int, n)
	copy(next, rowPtr[:n])
	for k := range b.vals {
		r := b.rows[k]
		p := next[r]
		colTmp[p] = b.cols[k]
		valTmp[p] = b.vals[k]
		if indexed {
			idxTmp[p] = int32(k)
		}
		next[r]++
	}
	// Sort each row by column and merge duplicates in place. The sort is
	// driven purely by column comparisons, so the resulting order — and
	// therefore the duplicate accumulation sequence — is identical whether
	// or not origin indices ride along.
	var am *AssemblyMap
	if indexed {
		am = &AssemblyMap{
			order: make([]int32, 0, len(b.vals)),
			dst:   make([]int32, 0, len(b.vals)),
		}
	}
	outPtr := make([]int, n+1)
	outCol := make([]int32, 0, len(valTmp))
	outVal := make([]float64, 0, len(valTmp))
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		row := rowEntries{cols: colTmp[lo:hi], vals: valTmp[lo:hi]}
		if indexed {
			row.idx = idxTmp[lo:hi]
		}
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
			if indexed {
				am.order = append(am.order, row.idx[k])
				am.dst = append(am.dst, int32(len(outVal)-1))
			}
		}
		outPtr[i+1] = len(outVal)
	}
	if indexed {
		am.nnz = len(outVal)
	}
	return &CSR{n: n, rowPtr: outPtr, col: outCol, val: outVal}, am
}

type rowEntries struct {
	cols []int32
	vals []float64
	idx  []int32 // optional COO origin indices (nil when not tracked)
}

func (r rowEntries) Len() int           { return len(r.cols) }
func (r rowEntries) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r rowEntries) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
	if r.idx != nil {
		r.idx[i], r.idx[j] = r.idx[j], r.idx[i]
	}
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

// Values exposes the backing value array (length NNZ, CSR entry order) for
// in-place restamping: overwriting it changes matrix values while the
// sparsity structure stays fixed. Used with AssemblyMap.Fold by prepared
// solvers; mutating it invalidates any factorization computed from m.
func (m *CSR) Values() []float64 { return m.val }

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

// IsSymmetric reports whether the matrix equals its transpose to within
// relative tolerance tol on each entry pair.
func (m *CSR) IsSymmetric(tol float64) bool {
	for i := 0; i < m.n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := int(m.col[k])
			a, b := m.val[k], m.At(j, i)
			scale := math.Max(math.Abs(a), math.Abs(b))
			if math.Abs(a-b) > tol*math.Max(scale, 1) {
				return false
			}
		}
	}
	return true
}

// Permute returns B = P*A*Pᵀ where the permutation maps old index i to new
// index perm[i]; that is, B[perm[i]][perm[j]] = A[i][j].
func (m *CSR) Permute(perm []int) *CSR {
	if len(perm) != m.n {
		panic("sparse: Permute dimension mismatch")
	}
	b := NewBuilder(m.n)
	for i := 0; i < m.n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			b.Add(perm[i], perm[int(m.col[k])], m.val[k])
		}
	}
	return b.ToCSR()
}

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

// Clone returns a deep copy of m.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		n:      m.n,
		rowPtr: append([]int(nil), m.rowPtr...),
		col:    append([]int32(nil), m.col...),
		val:    append([]float64(nil), m.val...),
	}
	return c
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
