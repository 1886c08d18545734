// Fixed-block reductions for PCG. The dot products, norms and the fused
// iterate/residual/norm update are summed in a fixed blocked order: the
// vector is cut into vecBlock-sized blocks, each block is summed in index
// order, and the per-block partials are combined in block order. For
// n ≤ vecBlock that is the plain straight loop; for longer vectors the
// bits depend on the block order, so the block size is a package constant
// that results (and the goldens) are pinned to.
package sparse

// vecBlock is the fixed reduction block size (in float64 elements). It is
// deliberately larger than every test-scale system (so single-block
// reductions reproduce the historical straight-loop arithmetic exactly)
// while a 1M-node vector still sums as 16 partials.
const vecBlock = 65536

// blockedReduce sums blockFn over the consecutive vecBlock-sized blocks of
// [0, n), combining the partials in block order.
func blockedReduce(n int, blockFn func(lo, hi int) float64) float64 {
	if n <= vecBlock {
		return blockFn(0, n)
	}
	var s float64
	for lo := 0; lo < n; lo += vecBlock {
		s += blockFn(lo, min(lo+vecBlock, n))
	}
	return s
}

// blockedDot is Dot with the fixed-block reduction order. For n ≤ vecBlock
// it is the plain serial loop (bit-identical to Dot).
func blockedDot(x, y []float64) float64 {
	return blockedReduce(len(x), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += x[i] * y[i]
		}
		return s
	})
}

// blockedNormSq returns ‖x‖² in the fixed-block reduction order.
func blockedNormSq(x []float64) float64 {
	return blockedReduce(len(x), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += x[i] * x[i]
		}
		return s
	})
}

// fusedUpdateNormSq performs the PCG iterate/residual update
//
//	x += alpha·p;  r -= alpha·ap
//
// and returns the new ‖r‖² reduced in the fixed-block order, in one pass
// over the vectors.
func fusedUpdateNormSq(x, p, r, ap []float64, alpha float64) float64 {
	return blockedReduce(len(x), func(lo, hi int) float64 {
		var rr float64
		for i := lo; i < hi; i++ {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			rr += ri * ri
		}
		return rr
	})
}
