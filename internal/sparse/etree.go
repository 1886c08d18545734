package sparse

// EliminationTree computes the elimination tree of the symmetric matrix a
// (using its lower triangle): parent[j] is the first row i > j whose
// factor row contains column j, or -1 for roots. Liu's algorithm with
// path compression.
func EliminationTree(a *CSR) []int {
	n := a.N()
	parent := make([]int, n)
	ancestor := make([]int, n)
	for i := 0; i < n; i++ {
		parent[i] = -1
		ancestor[i] = -1
		a.Row(i, func(j int, _ float64) {
			// Walk from j up to the root of its current subtree,
			// compressing the path onto i.
			for j < i && j != -1 {
				next := ancestor[j]
				ancestor[j] = i
				if next == -1 {
					parent[j] = i
					break
				}
				j = next
			}
		})
	}
	return parent
}

// etreeReach computes the nonzero pattern of row i of the Cholesky factor
// using the elimination tree: the union of tree paths from each a_ij
// (j < i) toward the root, stopped at already-visited nodes. The pattern
// is returned in topological (ascending-dependency) order in stack[top:].
//
// mark is a work array (len n) holding the last row each node was
// visited for; stack is a work array (len n). Each path is collected
// at the bottom of stack and then moved onto the pattern at its top, as
// in CSparse's cs_ereach: the two parts hold distinct nodes other than i,
// so they never meet.
func etreeReach(a *CSR, i int, parent []int, mark []int, stack []int) []int {
	top := len(stack)
	mark[i] = i // never include the diagonal itself
	for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
		j := int(a.col[k])
		if j >= i {
			continue
		}
		// Walk up the tree collecting unvisited nodes in path order.
		n := 0
		for j != -1 && j < i && mark[j] != i {
			mark[j] = i
			stack[n] = j
			n++
			j = parent[j]
		}
		// Move the (reversed) path onto the pattern so ancestors come
		// after descendants overall.
		for n > 0 {
			n--
			top--
			stack[top] = stack[n]
		}
	}
	return stack[top:]
}
