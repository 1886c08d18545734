package sparse

import "sort"

// NestedDissection computes a fill-reducing ordering for the symmetric
// sparsity pattern of a by recursive graph bisection (George's nested
// dissection): a BFS level structure from a pseudo-peripheral vertex
// supplies a small separator, the two halves are ordered recursively, and
// the separator is numbered last. Mesh-like graphs (PDN grids, thermal
// stacks) get near-optimal fill. The returned slice maps old index i to
// new index perm[i].
//
// Dense rows are numbered last, after the dissected rest, in ascending
// index order: a vertex whose off-diagonal degree exceeds
// max(32, 8·(nnz/n + 1)) is left out of the graph before dissecting (the
// dense-row rule of AMD: Amestoy, Davis & Duff, SIMAX 1996; ACM TOMS
// Alg. 837). In a PDN these are the two package nodes, each tied to every
// C4 pad; left in, they put every pad two hops from every other, so the
// BFS level structures come out shallow and the separators large.
func NestedDissection(a *CSR) []int {
	n := a.N()
	nd := &ndState{
		a:       a,
		inSet:   make([]int, n),
		level:   make([]int, n),
		queue:   make([]int, 0, n),
		ordered: make([]int, 0, n),
	}
	for i := range nd.inSet {
		nd.inSet[i] = -1
	}
	// Marking the dense rows seen keeps every traversal out of them.
	seen := make([]bool, n)
	var dense []int
	limit := max(32, 8*(a.NNZ()/max(n, 1)+1))
	for v := 0; v < n; v++ {
		deg := 0
		a.Row(v, func(j int, _ float64) {
			if j != v {
				deg++
			}
		})
		if deg > limit {
			seen[v] = true
			dense = append(dense, v)
		}
	}
	// Handle each connected component.
	for v := 0; v < n; v++ {
		if seen[v] {
			continue
		}
		comp := nd.collectComponent(v, seen)
		nd.dissect(comp)
	}
	nd.ordered = append(nd.ordered, dense...)
	perm := make([]int, n)
	for newIdx, old := range nd.ordered {
		perm[old] = newIdx
	}
	return perm
}

type ndState struct {
	a       *CSR
	inSet   []int // generation marker: inSet[v] == gen means v is active
	gen     int
	level   []int
	queue   []int
	ordered []int
}

// leafSize is the subproblem size below which recursion stops and the
// subset is ordered directly.
const leafSize = 24

func (nd *ndState) collectComponent(start int, seen []bool) []int {
	comp := []int{start}
	seen[start] = true
	for head := 0; head < len(comp); head++ {
		nd.a.Row(comp[head], func(j int, _ float64) {
			if !seen[j] {
				seen[j] = true
				comp = append(comp, j)
			}
		})
	}
	return comp
}

// bfsLevels runs a BFS restricted to the active set from start, filling
// nd.level, and returns the vertices in visit order plus the depth.
func (nd *ndState) bfsLevels(set []int, start int) ([]int, int) {
	gen := nd.gen
	order := nd.queue[:0]
	order = append(order, start)
	nd.level[start] = 0
	visitedGen := make(map[int]bool, len(set))
	visitedGen[start] = true
	depth := 0
	for head := 0; head < len(order); head++ {
		v := order[head]
		nd.a.Row(v, func(j int, _ float64) {
			if nd.inSet[j] == gen && !visitedGen[j] {
				visitedGen[j] = true
				nd.level[j] = nd.level[v] + 1
				if nd.level[j] > depth {
					depth = nd.level[j]
				}
				order = append(order, j)
			}
		})
	}
	nd.queue = order[:0]
	out := append([]int(nil), order...)
	return out, depth
}

// dissect recursively orders the given vertex set.
func (nd *ndState) dissect(set []int) {
	if len(set) <= leafSize {
		// Small base case: natural (sorted) order keeps determinism.
		s := append([]int(nil), set...)
		sort.Ints(s)
		nd.ordered = append(nd.ordered, s...)
		return
	}

	// Mark the active set with a fresh generation.
	nd.gen++
	gen := nd.gen
	for _, v := range set {
		nd.inSet[v] = gen
	}

	// Pseudo-peripheral start: BFS twice, starting the second pass from
	// the deepest vertex of the first.
	order, _ := nd.bfsLevels(set, set[0])
	far := order[len(order)-1]
	order, depth := nd.bfsLevels(set, far)

	if len(order) < len(set) {
		// The set splits into disconnected pieces (can happen after
		// separator removal): dissect the found piece and the rest.
		found := map[int]bool{}
		for _, v := range order {
			found[v] = true
		}
		var rest []int
		for _, v := range set {
			if !found[v] {
				rest = append(rest, v)
			}
		}
		nd.dissect(order)
		nd.dissect(rest)
		return
	}
	if depth < 2 {
		// No useful level structure (dense blob): order directly.
		s := append([]int(nil), set...)
		sort.Ints(s)
		nd.ordered = append(nd.ordered, s...)
		return
	}

	mid := depth / 2
	var lo, hi, sep []int
	for _, v := range order {
		switch {
		case nd.level[v] < mid:
			lo = append(lo, v)
		case nd.level[v] > mid:
			hi = append(hi, v)
		default:
			sep = append(sep, v)
		}
	}
	nd.dissect(lo)
	nd.dissect(hi)
	s := append([]int(nil), sep...)
	sort.Ints(s)
	nd.ordered = append(nd.ordered, s...)
}
