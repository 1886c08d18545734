package sparse

// InvertPerm returns the inverse permutation: if perm maps old->new,
// the result maps new->old.
func InvertPerm(perm []int) []int {
	inv := make([]int, len(perm))
	for old, nw := range perm {
		inv[nw] = old
	}
	return inv
}

// PermuteVec scatters x (indexed by old labels) into a new slice indexed by
// new labels: out[perm[i]] = x[i].
func PermuteVec(perm []int, x []float64) []float64 {
	out := make([]float64, len(x))
	for i, p := range perm {
		out[p] = x[i]
	}
	return out
}
