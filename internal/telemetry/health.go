// Solver-health plumbing: the ConvergenceReport record the convergence
// probe in internal/sparse builds for every PCG solve, and the holders
// that keep the hardest of those reports for a job and for the process.
//
// The probe is always on. It only copies scalars the solver already
// computed, so it never perturbs solver arithmetic, and sparsetest checks
// that the reports of concurrent and serial solves agree.
package telemetry

import "sync/atomic"

// Residual ring bounds of a ConvergenceReport: the first ResidualHeadLen
// residuals are always kept (the early trajectory shows the
// preconditioner quality), the rest go through a circular buffer so the
// final ResidualTailLen are kept too (the tail shows the stagnation or
// divergence that killed the solve). Everything between is counted in
// ResidualsDropped, so even a 10⁵-iteration solve stays a few KB.
const (
	ResidualHeadLen = 32
	ResidualTailLen = 256
)

// ConvergenceReport is the convergence record of one probed iterative
// solve, built by the sparse probe and read by every surface: the solve
// result, the job stats document and the run manifest (each through a
// HardestReport) and the solver error. It lives
// here, not in sparse, because telemetry cannot import sparse (which
// imports telemetry).
type ConvergenceReport struct {
	Kind           string  `json:"kind"` // "pcg"
	N              int     `json:"n"`
	Preconditioner string  `json:"preconditioner"`
	Tol            float64 `json:"tol"`
	MaxIter        int     `json:"max_iter"`

	Iterations    int     `json:"iterations"`
	FinalResidual float64 `json:"final_residual"`
	Converged     bool    `json:"converged"`
	// BreakdownIter is the iteration at which pᵀAp lost positivity, 0 when
	// the solve ended by convergence or iteration budget.
	BreakdownIter int `json:"breakdown_iter,omitempty"`

	// Spectral estimates from the first LanczosDim CG coefficients; zero
	// when the solve ended before any iteration completed.
	LambdaMin    float64 `json:"lambda_min,omitempty"`
	LambdaMax    float64 `json:"lambda_max,omitempty"`
	CondEstimate float64 `json:"cond_estimate,omitempty"`
	LanczosDim   int     `json:"lanczos_dim,omitempty"`

	// ReductionFactor is the geometric-mean per-iteration residual
	// reduction over the whole solve ((r_final/r_0)^(1/iterations)).
	ReductionFactor float64 `json:"reduction_factor,omitempty"`

	// Residuals is the bounded relative-residual trajectory in iteration
	// order (index 0 = initial residual), with up to ResidualsDropped
	// middle iterations elided between head and tail.
	Residuals        []float64 `json:"residuals,omitempty"`
	ResidualsDropped int       `json:"residuals_dropped,omitempty"`
}

// ResidualIteration returns the solver step of Residuals[i]. The head of
// the ring holds steps 0…ResidualHeadLen−1; past it, the ResidualsDropped
// elided steps shift the numbering.
func (r *ConvergenceReport) ResidualIteration(i int) int {
	if i < ResidualHeadLen {
		return i
	}
	return i + r.ResidualsDropped
}

// harder reports whether a is strictly harder than b: a failed solve
// before a converged one, then more iterations, then on a tie a larger
// condition estimate, then a larger final residual.
func harder(a, b *ConvergenceReport) bool {
	if a.Converged != b.Converged {
		return !a.Converged
	}
	if a.Iterations != b.Iterations {
		return a.Iterations > b.Iterations
	}
	if a.CondEstimate != b.CondEstimate {
		return a.CondEstimate > b.CondEstimate
	}
	return a.FinalResidual > b.FinalResidual
}

// HardestReport keeps the hardest ConvergenceReport offered to it. Which
// report it keeps does not depend on the order of the offers, so the
// record of concurrent solves is deterministic: only a full tie keeps the
// report offered first. Safe for concurrent use; the zero value is empty
// and a nil holder ignores offers.
type HardestReport struct {
	p atomic.Pointer[ConvergenceReport]
}

// Offer keeps r when it is harder than the held report. A nil r is
// ignored. Reports are never mutated once offered.
func (h *HardestReport) Offer(r *ConvergenceReport) {
	if h == nil || r == nil {
		return
	}
	for {
		cur := h.p.Load()
		if cur != nil && !harder(r, cur) {
			return
		}
		if h.p.CompareAndSwap(cur, r) {
			return
		}
	}
}

// Load returns the held report, or nil when nothing was offered.
func (h *HardestReport) Load() *ConvergenceReport {
	if h == nil {
		return nil
	}
	return h.p.Load()
}

// processHealth is the process's record: the hardest report of every
// probed solve this process ran, failed ones included. The run manifest
// carries it.
var processHealth HardestReport

// RecordSolverHealth offers one probed solve's report to the process
// record. Called by the sparse convergence probe once per solve.
func RecordSolverHealth(r *ConvergenceReport) { processHealth.Offer(r) }

// SolverHealth returns the process record: the report of the hardest
// probed solve so far, or nil when no solve has been probed.
func SolverHealth() *ConvergenceReport { return processHealth.Load() }
