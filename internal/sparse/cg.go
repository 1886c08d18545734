package sparse

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"voltstack/internal/telemetry"
)

// Solver instrumentation: iteration counts and residuals are the
// convergence-effort signal of the whole toolchain (every PDN solve funnels
// through PCG on large meshes), so they are recorded whenever telemetry is
// enabled. All handles are no-ops when it is not.
var (
	mPCGSolves       = telemetry.NewCounter("sparse_pcg_solves_total")
	mPCGIterations   = telemetry.NewCounter("sparse_pcg_iterations_total")
	mPCGNoConverge   = telemetry.NewCounter("sparse_pcg_nonconverged_total")
	mPCGIterHist     = telemetry.NewHistogram("sparse_pcg_iterations")
	mPCGLastResidual = telemetry.NewGauge("sparse_pcg_last_residual")
	mPrecondBuilds   = telemetry.NewCounter("sparse_precond_builds_total")
	mPrecondSeconds  = telemetry.NewHistogram("sparse_precond_build_seconds")
	mIC0Shifts       = telemetry.NewCounter("sparse_ic0_shift_attempts_total")
)

// ErrNoConvergence is returned when an iterative solver fails to reach the
// requested tolerance within its iteration budget.
var ErrNoConvergence = errors.New("sparse: iterative solver did not converge")

// Preconditioner applies z = M⁻¹ r for some approximation M of A.
type Preconditioner interface {
	Apply(r, z []float64)
}

// IdentityPrec is the trivial preconditioner (plain CG).
type IdentityPrec struct{}

// Apply copies r into z.
func (IdentityPrec) Apply(r, z []float64) { copy(z, r) }

// JacobiPrec is the diagonal (Jacobi) preconditioner.
type JacobiPrec struct {
	invDiag []float64
}

// NewJacobi builds a Jacobi preconditioner from the diagonal of a.
// Zero diagonal entries are treated as 1 to stay defined.
func NewJacobi(a *CSR) *JacobiPrec {
	t0 := telemetry.Now()
	defer func() { mPrecondBuilds.Add(1); mPrecondSeconds.Since(t0) }()
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			inv[i] = 1
		} else {
			inv[i] = 1 / v
		}
	}
	return &JacobiPrec{invDiag: inv}
}

// Apply computes z = D⁻¹ r.
func (p *JacobiPrec) Apply(r, z []float64) {
	for i := range r {
		z[i] = r[i] * p.invDiag[i]
	}
}

// IC0Prec is a zero-fill incomplete Cholesky preconditioner: A ≈ L*Lᵀ with
// L restricted to the sparsity pattern of the lower triangle of A. The
// factorization runs on the symmetrically scaled matrix D^-1/2 A D^-1/2
// (unit diagonal), which keeps it stable for conductance matrices whose
// entries span many orders of magnitude.
type IC0Prec struct {
	lower *CSR      // L of the scaled matrix, diagonal stored last per row
	upper *CSR      // Lᵀ for the backward solve
	scale []float64 // D^-1/2
}

// ic0Symbolic is the structural phase of NewIC0: the lower-triangle
// pattern of A, a value map from A's CSR entries into it, a per-row
// diagonal-index table, and the transpose pattern with its placement map.
type ic0Symbolic struct {
	n         int
	low       *CSR    // lower-triangle structure template (values unused)
	lowMap    []int32 // A's CSR entry k -> low val index, or -1 (upper part)
	diagIdx   []int32 // per-row val index of the diagonal entry in low
	upper     *CSR    // transpose structure template (values unused)
	upFromLow []int32 // upper val index -> low val index
}

// NewIC0 computes an incomplete Cholesky factorization of the SPD matrix a.
// If the factorization breaks down (non-positive pivot), the diagonal is
// shifted by successively larger multiples of its magnitude and the
// factorization retried; an error is returned only if even a large shift
// fails.
func NewIC0(a *CSR) (*IC0Prec, error) {
	sym, err := analyzeIC0(a)
	if err != nil {
		return nil, err
	}
	return sym.factor(a)
}

// analyzeIC0 performs the structural phase of NewIC0. It fails only on
// a structurally missing diagonal entry.
func analyzeIC0(a *CSR) (*ic0Symbolic, error) {
	n := a.N()
	s := &ic0Symbolic{n: n}

	// Lower-triangle structure. Builder entries are unique here, so value
	// placement during factor is pure assignment.
	lb := NewBuilder(n)
	lb.Grow(lowerEntries(a))
	for i := 0; i < n; i++ {
		a.Row(i, func(j int, _ float64) {
			if j <= i {
				lb.Add(i, j, 1)
			}
		})
	}
	s.low = lb.ToCSR()
	s.lowMap = make([]int32, a.NNZ())
	k := 0
	for i := 0; i < n; i++ {
		a.Row(i, func(j int, _ float64) {
			if j <= i {
				s.lowMap[k] = int32(s.low.entryIndex(i, j))
			} else {
				s.lowMap[k] = -1
			}
			k++
		})
	}

	// Diagonal-index table: rows are sorted ascending, so in the lower
	// triangle the diagonal is the last stored entry of its row.
	s.diagIdx = make([]int32, n)
	for i := 0; i < n; i++ {
		hi := s.low.rowPtr[i+1]
		if hi == s.low.rowPtr[i] || int(s.low.col[hi-1]) != i {
			return nil, fmt.Errorf("sparse: IC(0): missing diagonal at row %d", i)
		}
		s.diagIdx[i] = int32(hi - 1)
	}

	// Transpose structure for the backward sweep, plus the map that carries
	// factor values across (assignment; entries are unique).
	ub := NewBuilder(n)
	ub.Grow(s.low.NNZ())
	for i := 0; i < n; i++ {
		s.low.Row(i, func(j int, _ float64) { ub.Add(j, i, 1) })
	}
	s.upper = ub.ToCSR()
	s.upFromLow = make([]int32, s.upper.NNZ())
	for i := 0; i < n; i++ {
		for kk := s.low.rowPtr[i]; kk < s.low.rowPtr[i+1]; kk++ {
			j := int(s.low.col[kk])
			s.upFromLow[s.upper.entryIndex(j, i)] = int32(kk)
		}
	}
	return s, nil
}

// factor numerically builds the preconditioner for a, the matrix the
// symbolic phase analyzed. Breakdown triggers the diagonal-shift retry
// ladder described at NewIC0.
func (s *ic0Symbolic) factor(a *CSR) (*IC0Prec, error) {
	t0 := telemetry.Now()
	defer func() { mPrecondBuilds.Add(1); mPrecondSeconds.Since(t0) }()
	p := &IC0Prec{
		lower: &CSR{n: s.n, rowPtr: s.low.rowPtr, col: s.low.col, val: make([]float64, s.low.NNZ())},
		upper: &CSR{n: s.n, rowPtr: s.upper.rowPtr, col: s.upper.col, val: make([]float64, s.upper.NNZ())},
		scale: make([]float64, s.n),
	}
	attempts := 0
	var lastErr error
	for shift := 0.0; shift <= 1.0; {
		err := s.factorShift(a, p, shift)
		if err == nil {
			if shift > 0 {
				mIC0Shifts.Add(int64(attempts))
			}
			return p, nil
		}
		if !errors.Is(err, ErrNotPositiveDefinite) {
			return nil, err
		}
		attempts++
		lastErr = err
		if shift == 0 {
			shift = 1e-3
		} else {
			shift *= 4
		}
	}
	mIC0Shifts.Add(int64(attempts))
	return nil, fmt.Errorf("sparse: IC(0) breakdown persists after %d diagonal shifts: %w", attempts, lastErr)
}

// factorShift is one factorization attempt at a given diagonal shift,
// writing into p's storage. The arithmetic sequence matches the historical
// from-scratch tryIC0 exactly.
func (sym *ic0Symbolic) factorShift(a *CSR, p *IC0Prec, shift float64) error {
	n := sym.n
	// Symmetric Jacobi scaling: factor D^-1/2 A D^-1/2, which has a unit
	// diagonal and bounded off-diagonal magnitudes.
	scale := p.scale
	for i, d := range a.Diag() {
		if d <= 0 {
			return fmt.Errorf("sparse: IC(0): non-positive diagonal at row %d (value %g): %w", i, d, ErrNotPositiveDefinite)
		}
		scale[i] = 1 / math.Sqrt(d)
	}
	// Place the lower triangle of a, scaled and shifted, into the factor
	// storage (in-place factorization).
	l := p.lower
	for k, m := range sym.lowMap {
		if m >= 0 {
			l.val[m] = a.val[k]
		}
	}
	for i := 0; i < n; i++ {
		lo, hi := l.rowPtr[i], l.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			j := int(l.col[k])
			l.val[k] *= scale[i] * scale[j]
			if j == i {
				l.val[k] *= 1 + shift
			}
		}
	}

	// Row-oriented IC(0). The diagonal of each row sits at diagIdx (last
	// entry), so no per-entry diagonal scan is needed.
	diagIdx := sym.diagIdx
	for i := 0; i < n; i++ {
		iLo := l.rowPtr[i]
		di := int(diagIdx[i])
		for k := iLo; k < di; k++ {
			j := int(l.col[k])
			// L[i][j] = (A[i][j] - Σ_k<j L[i][k] L[j][k]) / L[j][j]
			jLo, jHi := l.rowPtr[j], l.rowPtr[j+1]
			s := l.val[k]
			ki, kj := iLo, jLo
			for ki < k && kj < jHi {
				ci, cj := l.col[ki], l.col[kj]
				switch {
				case ci == cj:
					if int(ci) < j {
						s -= l.val[ki] * l.val[kj]
					}
					ki++
					kj++
				case ci < cj:
					ki++
				default:
					kj++
				}
			}
			ljj := l.val[diagIdx[j]]
			if ljj == 0 {
				return fmt.Errorf("sparse: IC(0): zero pivot at row %d (shift %g): %w", j, shift, ErrNotPositiveDefinite)
			}
			l.val[k] = s / ljj
		}
		d := l.val[di]
		for k := iLo; k < di; k++ {
			d -= l.val[k] * l.val[k]
		}
		// On the scaled matrix the diagonal is 1+shift, so a pivot far
		// below 1 signals (near-)breakdown; treat it as such rather than
		// producing a disastrously conditioned factor.
		if d <= 1e-4 || math.IsNaN(d) {
			return fmt.Errorf("sparse: IC(0): pivot breakdown at row %d (scaled diagonal %g, shift %g): %w", i, d, shift, ErrNotPositiveDefinite)
		}
		l.val[di] = math.Sqrt(d)
	}

	// Carry the factor values into the transpose for the backward sweep.
	up := p.upper
	for t, m := range sym.upFromLow {
		up.val[t] = l.val[m]
	}
	return nil
}

// Apply solves (D^1/2 L Lᵀ D^1/2) z = r, the preconditioner in the
// original (unscaled) variables. r and z must not overlap. Apply only
// reads the factor, so concurrent calls with distinct z are safe.
func (p *IC0Prec) Apply(r, z []float64) {
	n := p.lower.N()
	scale := p.scale
	// Forward: L y = D^-1/2 r, with y stored in z. Rows of L are sorted,
	// so the diagonal (whose presence the symbolic phase guarantees) is
	// each row's last entry; the off-diagonal accumulation order matches
	// the branch-per-entry original exactly, keeping the solve
	// bit-identical.
	lval, lcol, lptr := p.lower.val, p.lower.col, p.lower.rowPtr
	for i := 0; i < n; i++ {
		s := r[i] * scale[i]
		lo, hi := lptr[i], lptr[i+1]
		for k := lo; k < hi-1; k++ {
			s -= lval[k] * z[lcol[k]]
		}
		z[i] = s / lval[hi-1]
	}
	// Backward: Lᵀ w = y in place (row i reads y[i] and the already
	// solved w[j], j > i), then z = D^-1/2 w. Rows of upper are sorted,
	// diagonal first.
	uval, ucol, uptr := p.upper.val, p.upper.col, p.upper.rowPtr
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		lo, hi := uptr[i], uptr[i+1]
		for k := lo + 1; k < hi; k++ {
			s -= uval[k] * z[ucol[k]]
		}
		z[i] = s / uval[lo]
	}
	for i := 0; i < n; i++ {
		z[i] *= scale[i]
	}
}

// CGResult reports how an iterative solve went.
type CGResult struct {
	Iterations int
	Residual   float64 // final relative residual ‖b−Ax‖₂/‖b‖₂

	// Health is the convergence report (bounded residual history, Lanczos
	// condition estimate, detector verdicts), populated on success and
	// failure while convergence probes are enabled; nil otherwise. Probes
	// never perturb the solve: x, Iterations and Residual are
	// byte-identical either way.
	Health *telemetry.ConvergenceReport
}

// PCGWorkspace holds the scratch vectors of a PCG solve so repeated solves
// on same-sized systems allocate nothing. A workspace must not be shared
// between concurrent solves.
type PCGWorkspace struct {
	r, z, p, ap []float64
	buf         []float64 // single cache-line-aligned backing allocation
}

// cacheLineF64 is one 64-byte cache line in float64 elements.
const cacheLineF64 = 8

// NewPCGWorkspace returns a workspace for n-dimensional solves. All four
// scratch vectors live in one backing allocation, each starting on a
// 64-byte cache-line boundary with a full guard line between neighbours:
// concurrent solves then never false-share a line across workspace
// vectors.
func NewPCGWorkspace(n int) *PCGWorkspace {
	stride := (n+cacheLineF64-1)/cacheLineF64*cacheLineF64 + cacheLineF64
	buf := make([]float64, 4*stride+cacheLineF64)
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) % 64; rem != 0 {
		off = int((64 - rem) / 8)
	}
	vec := func(k int) []float64 {
		lo := off + k*stride
		return buf[lo : lo+n : lo+n]
	}
	return &PCGWorkspace{
		r:   vec(0),
		z:   vec(1),
		p:   vec(2),
		ap:  vec(3),
		buf: buf,
	}
}

func (w *PCGWorkspace) resize(n int) {
	if len(w.r) != n {
		*w = *NewPCGWorkspace(n)
	}
}

// PCG solves A x = b for SPD A using the preconditioned conjugate gradient
// method. x0 may be nil (zero initial guess) and prec nil (no
// preconditioning). ws is an optional caller-owned scratch workspace; nil
// allocates scratch per call. Results are bit-identical regardless of
// workspace reuse (every scratch vector is fully overwritten before use).
// The solve stops when the relative residual drops below tol or maxIter
// iterations elapse.
//
// Concurrent PCG calls may share a, b, x0 and any preconditioner of this
// package, but not ws: the preconditioners only read their factors, and
// an AMG V-cycle runs on scratch private to the solve.
func PCG(a *CSR, b, x0 []float64, prec Preconditioner, tol float64, maxIter int, ws *PCGWorkspace) ([]float64, CGResult, error) {
	x, res, err := pcg(a, b, x0, prec, tol, maxIter, ws)
	mPCGSolves.Add(1)
	mPCGIterations.Add(int64(res.Iterations))
	mPCGIterHist.Observe(float64(res.Iterations))
	mPCGLastResidual.Set(res.Residual)
	if errors.Is(err, ErrNoConvergence) {
		mPCGNoConverge.Add(1)
	}
	return x, res, err
}

func pcg(a *CSR, b, x0 []float64, prec Preconditioner, tol float64, maxIter int, ws *PCGWorkspace) ([]float64, CGResult, error) {
	n := a.N()
	if len(b) != n {
		panic("sparse: PCG dimension mismatch")
	}
	switch q := prec.(type) {
	case nil:
		prec = IdentityPrec{}
	case *AMGPrec:
		prec = q.forkScratch()
	}
	if ws == nil {
		ws = NewPCGWorkspace(n)
	} else {
		ws.resize(n)
	}
	// Convergence probe: one gate check per solve, a nil check per
	// iteration, zero alloc when off. The probe only copies scalars the
	// solve computed anyway, so results are bit-identical with the gate on
	// or off.
	var probe *convProbe
	if probesOn() {
		probe = newConvProbe(a, prec, tol, maxIter)
	}
	// x is allocated per solve: it is returned to (and kept by) the caller.
	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	}
	// sealOK attaches the sealed convergence report to a successful result
	// when the probe is on; a no-op (and no allocation) otherwise.
	sealOK := func(result CGResult) CGResult {
		if probe != nil {
			result.Health = probe.seal(result, true)
		}
		return result
	}
	// Every reduction below runs in the fixed-block order of kernels.go.
	r := ws.r
	a.MulVec(x, r)
	Sub(b, r, r)
	normB := math.Sqrt(blockedNormSq(b))
	if normB == 0 {
		// b = 0 => x = 0 (or x0 residual already 0)
		return x, sealOK(CGResult{Iterations: 0, Residual: 0}), nil
	}

	z, p, ap := ws.z, ws.p, ws.ap
	prec.Apply(r, z)
	copy(p, z)
	rz := blockedDot(r, z)

	res := math.Sqrt(blockedNormSq(r)) / normB
	if probe != nil {
		probe.record(res)
	}
	if res <= tol {
		return x, sealOK(CGResult{Iterations: 0, Residual: res}), nil
	}
	for it := 1; it <= maxIter; it++ {
		a.MulVec(p, ap)
		pap := blockedDot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			// Breakdown: report the true residual of the current iterate
			// (recomputed as b − A·x, not the recursively updated estimate
			// from the previous iteration). ap is dead here; reuse it.
			// Iteration `it` performed no update, so the iterate — and the
			// reported count — belong to iteration it−1, matching how the
			// fused-norm path below counts only completed updates.
			a.MulVec(x, ap)
			Sub(b, ap, ap)
			res = Norm2(ap) / normB
			err := fmt.Errorf("sparse: PCG: matrix not SPD (pᵀAp=%g at iter %d)", pap, it)
			result := CGResult{Iterations: it - 1, Residual: res}
			if probe != nil {
				probe.record(res)
				probe.report.BreakdownIter = it
				result, err = probe.fail(result, err)
			}
			return x, result, err
		}
		alpha := rz / pap
		// Fused iterate/residual update and residual norm: one pass over
		// the vectors instead of three (Axpy, Axpy, Norm2), reduced in the
		// fixed-block order.
		rr := fusedUpdateNormSq(x, p, r, ap, alpha)
		res = math.Sqrt(rr) / normB
		if probe != nil {
			probe.iter(alpha, res)
		}
		if res <= tol {
			return x, sealOK(CGResult{Iterations: it, Residual: res}), nil
		}
		prec.Apply(r, z)
		rzNew := blockedDot(r, z)
		beta := rzNew / rz
		rz = rzNew
		if probe != nil {
			probe.betaCoeff(beta)
		}
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	err := fmt.Errorf("%w: residual %.3e after %d iterations", ErrNoConvergence, res, maxIter)
	result := CGResult{Iterations: maxIter, Residual: res}
	if probe != nil {
		result, err = probe.fail(result, err)
	}
	return x, result, err
}
