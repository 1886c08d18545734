package sparse

import (
	"fmt"
	"math"
)

// Dense is a small row-major dense matrix used by the switch-level
// converter simulators, where systems have only a handful of nodes.
type Dense struct {
	n int
	a []float64
}

// NewDense returns a zero n x n dense matrix.
func NewDense(n int) *Dense {
	return &Dense{n: n, a: make([]float64, n*n)}
}

// N returns the dimension.
func (d *Dense) N() int { return d.n }

// At returns entry (i, j).
func (d *Dense) At(i, j int) float64 { return d.a[i*d.n+j] }

// Set assigns entry (i, j).
func (d *Dense) Set(i, j int, v float64) { d.a[i*d.n+j] = v }

// Add accumulates v into entry (i, j).
func (d *Dense) Add(i, j int, v float64) { d.a[i*d.n+j] += v }

// MulVec computes y = D*x.
func (d *Dense) MulVec(x, y []float64) {
	for i := 0; i < d.n; i++ {
		var s float64
		row := d.a[i*d.n : (i+1)*d.n]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// DenseLU is an LU factorization with partial pivoting.
type DenseLU struct {
	n   int
	lu  []float64
	piv []int
}

// LU factors the matrix with partial pivoting. The receiver is unmodified.
func (d *Dense) LU() (*DenseLU, error) {
	n := d.n
	lu := append([]float64(nil), d.a...)
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot search.
		p, maxAbs := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 {
			return nil, fmt.Errorf("sparse: dense LU: singular at column %d", k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivVal := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivVal
			lu[i*n+k] = m
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return &DenseLU{n: n, lu: lu, piv: piv}, nil
}

// Solve returns x with A x = b.
func (f *DenseLU) Solve(b []float64) []float64 {
	n := f.n
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward: L y = Pb (unit lower).
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Backward: U x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
	return x
}
