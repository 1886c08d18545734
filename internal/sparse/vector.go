package sparse

import "math"

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("sparse: Dot dimension mismatch")
	}
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// NormInf returns the maximum absolute entry of x.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Sub computes z = x - y; z may alias either operand.
func Sub(x, y, z []float64) {
	if len(x) != len(y) || len(x) != len(z) {
		panic("sparse: Sub dimension mismatch")
	}
	for i := range x {
		z[i] = x[i] - y[i]
	}
}
