package sparse

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"voltstack/internal/telemetry"
)

// Solver instrumentation: iteration counts are the convergence-effort
// signal of the whole toolchain (every PDN solve funnels through PCG on
// large meshes).
var (
	mPCGSolves      = telemetry.NewCounter("sparse_pcg_solves_total")
	mPCGIterations  = telemetry.NewCounter("sparse_pcg_iterations_total")
	mPCGNoConverge  = telemetry.NewCounter("sparse_pcg_nonconverged_total")
	mPCGIterHist    = telemetry.NewHistogram("sparse_pcg_iterations")
	mPrecondBuilds  = telemetry.NewCounter("sparse_precond_builds_total")
	mPrecondSeconds = telemetry.NewHistogram("sparse_precond_build_seconds")
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

// CGResult reports how an iterative solve went.
type CGResult struct {
	Iterations int
	Residual   float64 // final relative residual ‖b−Ax‖₂/‖b‖₂

	// Health is the convergence report (bounded residual history, Lanczos
	// condition estimate, reduction factor), set by every PCG solve on
	// success and on failure. The probe behind it only copies scalars the
	// solve computed, so it never changes x, Iterations or Residual.
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
// Concurrent PCG calls may share a, b, x0 and an *AMGPrec, but not ws:
// the hierarchy is read-only, and each solve runs its V-cycles on scratch
// of its own.
func PCG(a *CSR, b, x0 []float64, prec Preconditioner, tol float64, maxIter int, ws *PCGWorkspace) ([]float64, CGResult, error) {
	x, res, err := pcg(a, b, x0, prec, tol, maxIter, ws)
	mPCGSolves.Add(1)
	mPCGIterations.Add(int64(res.Iterations))
	mPCGIterHist.Observe(float64(res.Iterations))
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
	// The convergence probe only copies scalars the solve computes anyway.
	probe := newConvProbe(a, prec, tol, maxIter)
	// x is allocated per solve: it is returned to (and kept by) the caller.
	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	}
	// Every reduction below runs in the fixed-block order of kernels.go.
	r := ws.r
	a.MulVec(x, r)
	Sub(b, r, r)
	normB := math.Sqrt(blockedNormSq(b))
	if normB == 0 {
		// b = 0 => x = 0 (or x0 residual already 0)
		return x, probe.seal(CGResult{}, true), nil
	}

	z, p, ap := ws.z, ws.p, ws.ap
	prec.Apply(r, z)
	copy(p, z)
	rz := blockedDot(r, z)

	res := math.Sqrt(blockedNormSq(r)) / normB
	probe.record(res)
	if res <= tol {
		return x, probe.seal(CGResult{Residual: res}, true), nil
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
			probe.record(res)
			probe.report.BreakdownIter = it
			result, err := probe.fail(CGResult{Iterations: it - 1, Residual: res}, err)
			return x, result, err
		}
		alpha := rz / pap
		// Fused iterate/residual update and residual norm: one pass over
		// the vectors instead of three (Axpy, Axpy, Norm2), reduced in the
		// fixed-block order.
		rr := fusedUpdateNormSq(x, p, r, ap, alpha)
		res = math.Sqrt(rr) / normB
		probe.iter(alpha, res)
		if res <= tol {
			return x, probe.seal(CGResult{Iterations: it, Residual: res}, true), nil
		}
		prec.Apply(r, z)
		rzNew := blockedDot(r, z)
		beta := rzNew / rz
		rz = rzNew
		probe.betaCoeff(beta)
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	err := fmt.Errorf("%w: residual %.3e after %d iterations", ErrNoConvergence, res, maxIter)
	result, err := probe.fail(CGResult{Iterations: maxIter, Residual: res}, err)
	return x, result, err
}
