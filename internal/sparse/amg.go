// Aggregation-based algebraic multigrid, the PCG preconditioner for
// networks too large to factor directly. Conductance matrices of
// many-layer PDNs are weakly diagonally dominant M-matrices, the
// textbook-friendly case for unsmoothed pairwise aggregation: greedy
// strongest-neighbor pairing builds the aggregates, the Galerkin triple
// product PᵀAP builds each coarse operator (SPD whenever A is, since P has
// full column rank), and one symmetric V-cycle — one weighted-Jacobi sweep
// before and one after a sparse Cholesky solve on the coarsest level —
// serves as the preconditioner application. Equal sweep counts keep M⁻¹
// symmetric positive definite, which PCG requires; ω = 2/3 damps the upper
// half of the Jacobi spectrum safely because λmax(D⁻¹A) ≤ 2 for weakly
// diagonally dominant A.
package sparse

import (
	"fmt"
	"math"
	"time"

	"voltstack/internal/telemetry"
)

var (
	mAMGBuilds = telemetry.NewCounter("sparse_amg_builds_total")
	mAMGLevels = telemetry.NewHistogram("sparse_amg_levels")
)

// Hierarchy and smoother constants; the V-cycle runs one smoothing sweep
// on each side of the coarse correction.
const (
	amgMaxLevels  = 25      // hierarchy depth cap, including the coarsest
	amgCoarseSize = 64      // stop coarsening at or below this many unknowns
	amgOmega      = 2.0 / 3 // Jacobi damping factor
)

// amgLevel is one non-coarsest level of the hierarchy: its operator, the
// inverse diagonal for Jacobi smoothing, and the aggregate index of every
// unknown on the next coarser level. All fields are immutable after
// construction, so levels are shared between scratch forks.
type amgLevel struct {
	a       *CSR
	invDiag []float64
	agg     []int32
	nc      int
	// Aggregate member lists: aggregate g's fine rows are
	// aggRows[aggPtr[g]:aggPtr[g+1]], ascending. Restriction and the
	// Galerkin product sum over them in that order.
	aggPtr  []int32
	aggRows []int32
}

// AMGPrec is an aggregation-AMG preconditioner: Apply runs one symmetric
// V-cycle on the hierarchy. The hierarchy (levels, coarse factor) is
// immutable and shared by forks; the per-level scratch vectors are owned
// per instance, so a single AMGPrec must not Apply concurrently with
// itself. PCG runs every solve on its own scratch fork, so concurrent
// PCG solves may share one AMGPrec.
type AMGPrec struct {
	levels []*amgLevel
	coarse *SparseChol
	ns     []int // unknowns per level, finest first, coarsest last
	// V-cycle scratch, one vector per level: xs/bs carry the coarse-level
	// iterate and right-hand side (index 0 unused — the finest-level pair
	// is the caller's r/z), rs the smoothing/restriction residual.
	xs, bs, rs [][]float64
}

// NewAMG builds the multigrid hierarchy for the SPD matrix a. The matrix
// is captured by reference for the finest-level smoother; mutating its
// values afterwards invalidates the preconditioner (rebuild instead, as
// with a SparseChol factor).
func NewAMG(a *CSR) (*AMGPrec, error) {
	t0 := time.Now()
	defer func() { mPrecondBuilds.Add(1); mPrecondSeconds.Since(t0) }()
	p := &AMGPrec{ns: []int{a.N()}}
	cur := a
	for cur.N() > amgCoarseSize && len(p.levels)+1 < amgMaxLevels {
		lvl, coarseA, err := coarsenPairwise(cur)
		if err != nil {
			return nil, err
		}
		if lvl == nil {
			break // no coarsening progress; factor what we have
		}
		p.levels = append(p.levels, lvl)
		p.ns = append(p.ns, lvl.nc)
		cur = coarseA
	}
	f, err := FactorSparse(cur, OrderND)
	if err != nil {
		return nil, fmt.Errorf("sparse: AMG coarse factorization (n=%d): %w", cur.N(), err)
	}
	p.coarse = f
	p.allocScratch()
	mAMGBuilds.Add(1)
	mAMGLevels.Observe(float64(len(p.ns)))
	return p, nil
}

// Levels returns the hierarchy depth, counting the coarsest level.
func (p *AMGPrec) Levels() int { return len(p.ns) }

// CoarseN returns the number of unknowns on the directly-solved coarsest
// level.
func (p *AMGPrec) CoarseN() int { return p.ns[len(p.ns)-1] }

func (p *AMGPrec) allocScratch() {
	depth := len(p.ns)
	p.xs = make([][]float64, depth)
	p.bs = make([][]float64, depth)
	p.rs = make([][]float64, depth)
	for ell, n := range p.ns {
		if ell > 0 {
			p.xs[ell] = make([]float64, n)
			p.bs[ell] = make([]float64, n)
		}
		if ell < len(p.levels) {
			p.rs[ell] = make([]float64, n)
		}
	}
}

// forkScratch returns a view sharing the immutable hierarchy but owning
// fresh V-cycle scratch, so forks can Apply concurrently. PCG takes one
// per solve.
func (p *AMGPrec) forkScratch() Preconditioner {
	q := *p
	q.allocScratch()
	return &q
}

// coarsenPairwise aggregates the unknowns of a by greedy strongest-
// connection pairing (each unvisited node pairs with its largest-|a_ij|
// unaggregated neighbor; isolated leftovers become singletons) and returns
// the level plus the Galerkin coarse operator PᵀAP. A nil level signals
// that no coarsening progress was possible.
func coarsenPairwise(a *CSR) (*amgLevel, *CSR, error) {
	n := a.N()
	invDiag := make([]float64, n)
	for i, d := range a.Diag() {
		if d <= 0 {
			return nil, nil, fmt.Errorf("sparse: AMG: non-positive diagonal at row %d (value %g): %w", i, d, ErrNotPositiveDefinite)
		}
		invDiag[i] = 1 / d
	}
	agg := make([]int32, n)
	for i := range agg {
		agg[i] = -1
	}
	nc := 0
	for i := 0; i < n; i++ {
		if agg[i] >= 0 {
			continue
		}
		best, bestV := -1, 0.0
		a.Row(i, func(j int, v float64) {
			if j != i && agg[j] < 0 {
				if av := math.Abs(v); av > bestV {
					bestV = av
					best = j
				}
			}
		})
		agg[i] = int32(nc)
		if best >= 0 {
			agg[best] = int32(nc)
		}
		nc++
	}
	if nc >= n {
		return nil, nil, nil // every aggregate is a singleton: no progress
	}
	lvl := &amgLevel{a: a, invDiag: invDiag, agg: agg, nc: nc}
	// Aggregate member lists (counting sort): ascending fine index within
	// each aggregate, the order the restriction gather sums in.
	lvl.aggPtr = make([]int32, nc+1)
	for _, g := range agg {
		lvl.aggPtr[g+1]++
	}
	for g := 0; g < nc; g++ {
		lvl.aggPtr[g+1] += lvl.aggPtr[g]
	}
	lvl.aggRows = make([]int32, n)
	next := make([]int32, nc)
	copy(next, lvl.aggPtr[:nc])
	for i, g := range agg {
		lvl.aggRows[next[g]] = int32(i)
		next[g]++
	}
	return lvl, galerkinProduct(a, lvl), nil
}

// galerkinProduct computes the coarse operator PᵀAP for piecewise-constant
// P: entry (i,j,v) of A accumulates into coarse entry (agg[i], agg[j]).
// Coarse row I is assembled from exactly the fine rows of aggregate I with
// a sparse accumulator, in two passes (count, then fill) sharing one
// stamp-marked index. The accumulation order within a coarse row is fixed
// by the structure (member fine rows ascending, entries within each row
// ascending). Explicitly stored zeros of A are skipped, exactly as the
// historical Builder-based product dropped them.
func galerkinProduct(a *CSR, lvl *amgLevel) *CSR {
	nc := lvl.nc
	agg, aggPtr, aggRows := lvl.agg, lvl.aggPtr, lvl.aggRows
	rowPtr := make([]int, nc+1)
	markRow := make([]int32, nc)
	markPos := make([]int32, nc)
	for g := range markRow {
		markRow[g] = -1
	}
	// Pass 1: per-coarse-row unique-column counts.
	for bigI := 0; bigI < nc; bigI++ {
		count := 0
		for t := aggPtr[bigI]; t < aggPtr[bigI+1]; t++ {
			i := int(aggRows[t])
			for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
				if a.val[k] == 0 {
					continue
				}
				if bigJ := agg[a.col[k]]; markRow[bigJ] != int32(bigI) {
					markRow[bigJ] = int32(bigI)
					count++
				}
			}
		}
		rowPtr[bigI+1] = rowPtr[bigI] + count
	}
	col := make([]int32, rowPtr[nc])
	val := make([]float64, rowPtr[nc])
	// Pass 2: accumulate values in encounter order, then sort each row's
	// (col, val) pairs by column. Sorting moves fully accumulated values —
	// it cannot change any sum.
	for g := range markRow {
		markRow[g] = -1
	}
	for bigI := 0; bigI < nc; bigI++ {
		base := rowPtr[bigI]
		nrow := 0
		for t := aggPtr[bigI]; t < aggPtr[bigI+1]; t++ {
			i := int(aggRows[t])
			for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
				v := a.val[k]
				if v == 0 {
					continue
				}
				bigJ := agg[a.col[k]]
				if markRow[bigJ] != int32(bigI) {
					markRow[bigJ] = int32(bigI)
					markPos[bigJ] = int32(nrow)
					col[base+nrow] = bigJ
					val[base+nrow] = v
					nrow++
				} else {
					val[base+int(markPos[bigJ])] += v
				}
			}
		}
		// Insertion sort by column; coarse rows are short (pairwise
		// aggregation roughly preserves row degree).
		for s := base + 1; s < base+nrow; s++ {
			c, v := col[s], val[s]
			t := s - 1
			for t >= base && col[t] > c {
				col[t+1], val[t+1] = col[t], val[t]
				t--
			}
			col[t+1], val[t+1] = c, v
		}
	}
	return &CSR{n: nc, rowPtr: rowPtr, col: col, val: val}
}

// vcycle runs one V-cycle at level ell, solving A_ell x ≈ b from a zero
// initial guess. x is fully overwritten.
func (p *AMGPrec) vcycle(ell int, b, x []float64) {
	if ell == len(p.levels) {
		p.coarse.SolveTo(x, b)
		return
	}
	lvl := p.levels[ell]
	r := p.rs[ell]
	// Pre-smoothing: one weighted-Jacobi sweep from zero, x = ωD⁻¹b.
	for i := range x {
		x[i] = amgOmega * lvl.invDiag[i] * b[i]
	}
	// Coarse-grid correction: restrict the residual (Pᵀr sums each
	// aggregate's entries, members in ascending fine order), recurse,
	// prolongate (P copies the aggregate value to its members) and correct.
	lvl.a.MulVec(x, r)
	Sub(b, r, r)
	bc := p.bs[ell+1]
	for g := range bc {
		var s float64
		for t := lvl.aggPtr[g]; t < lvl.aggPtr[g+1]; t++ {
			s += r[lvl.aggRows[t]]
		}
		bc[g] = s
	}
	xc := p.xs[ell+1]
	p.vcycle(ell+1, bc, xc)
	for i, g := range lvl.agg {
		x[i] += xc[g]
	}
	// Post-smoothing: one sweep, x += ωD⁻¹(b − Ax).
	lvl.a.MulVec(x, r)
	for i := range x {
		x[i] += amgOmega * lvl.invDiag[i] * (b[i] - r[i])
	}
}

// Apply computes z = M⁻¹r as one symmetric V-cycle.
func (p *AMGPrec) Apply(r, z []float64) {
	p.vcycle(0, r, z)
}
