// Solver-health plumbing: the process-wide gate for the convergence
// probes that live next to the numerics in internal/sparse, the
// ConvergenceReport record each probed solve produces, and the
// most-recent-report slot behind /statusz's convergence section and the
// per-run history record.
//
// The probes are off by default and cost one atomic load per solve when
// disabled. Because they only *read* values the solver already computed,
// they never perturb solver arithmetic: results are byte-identical with
// the gate on or off, and sparsetest pins that contract at the sparse,
// circuit and pdngrid levels.
package telemetry

import "sync/atomic"

var probesOn atomic.Bool

// EnableConvergenceProbes turns on per-solve convergence analytics in the
// numerical core: residual/α/β history rings, Lanczos-based condition
// estimates, and the stagnation/plateau/degradation detectors. Purely
// additive — solver results are byte-identical either way.
func EnableConvergenceProbes() { probesOn.Store(true) }

// DisableConvergenceProbes turns convergence analytics back off. Solves
// already in flight keep recording into their own probes.
func DisableConvergenceProbes() { probesOn.Store(false) }

// ProbesEnabled reports whether convergence probes are on. Solver entry
// points check this once per solve; when false the per-iteration cost is
// a nil check and no allocation happens.
func ProbesEnabled() bool { return probesOn.Load() }

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

// AMGReport is the per-hierarchy slice of a convergence report, present
// when the solve ran under an AMG preconditioner: the hierarchy shape
// complexities plus the trailing per-cycle residual reduction factors
// (each PCG iteration applies exactly one V-cycle).
type AMGReport struct {
	Levels             int     `json:"levels"`
	OperatorComplexity float64 `json:"operator_complexity"`
	GridComplexity     float64 `json:"grid_complexity"`
	// CycleReductions holds ‖r_k‖/‖r_{k-1}‖ for the trailing iterations
	// of the recorded trajectory (at most 31).
	CycleReductions []float64 `json:"cycle_reductions,omitempty"`
}

// ConvergenceReport is the convergence record of one probed iterative
// solve, built by the sparse probe and read by every surface: the solve
// result, job-scope instruments and exemplars, /statusz, the history run
// record, post-mortem artifacts and the solver error. It lives here, not
// in sparse, because telemetry cannot import sparse (which imports
// telemetry).
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

	// Detector verdicts over the recorded trajectory.
	Stagnation  bool `json:"stagnation,omitempty"`
	Plateau     bool `json:"plateau,omitempty"`
	Degradation bool `json:"precond_degradation,omitempty"`

	AMG *AMGReport `json:"amg,omitempty"`
}

// lastHealth is the most recently probed solve's report, behind /statusz
// and the CLI history writer. Reports are never mutated once published.
var lastHealth atomic.Pointer[ConvergenceReport]

// RecordSolverHealth stores the report of the most recently probed solve.
// Called by the sparse convergence probe once per solve.
func RecordSolverHealth(r *ConvergenceReport) { lastHealth.Store(r) }

// LastSolverHealth returns the most recently recorded report, or nil when
// no solve has been probed in this process.
func LastSolverHealth() *ConvergenceReport { return lastHealth.Load() }
