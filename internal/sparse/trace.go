// Numerical flight recorder for iterative solves. When
// telemetry.FlightRecorderEnabled() is on, every PCG solve carries a
// bounded recorder of its residual trajectory; a failed solve returns its
// trace attached to the error (via TraceError), so the caller — typically
// pdngrid — can dump a post-mortem artifact with the full convergence
// history of exactly the solve that failed. With the gate off the cost is
// one atomic load per solve and a nil check per iteration.
package sparse

import (
	"errors"

	"voltstack/internal/telemetry"
)

// Trace ring bounds: the first traceHeadLen residuals are always kept (the
// early trajectory shows the preconditioner quality), the rest go through a
// circular buffer so the final traceTailLen are kept too (the tail shows
// the stagnation or divergence that killed the solve). Everything between
// is counted in ResidualsDropped.
const (
	traceHeadLen = 32
	traceTailLen = 256
)

// SolveTrace is the post-mortem record of one iterative solve: problem
// shape, solver configuration, and the (bounded) relative-residual
// trajectory. It marshals directly to the post-mortem JSON artifact.
type SolveTrace struct {
	Kind           string  `json:"kind"` // "pcg"
	N              int     `json:"n"`
	NNZ            int     `json:"nnz"`
	Tol            float64 `json:"tol"`
	MaxIter        int     `json:"max_iter"`
	Preconditioner string  `json:"preconditioner"`
	// WarmStart records whether the solve started from a caller-provided
	// iterate (transient steps warm-start from the previous step) rather
	// than from zero.
	WarmStart bool `json:"warm_start"`

	Iterations    int     `json:"iterations"`
	FinalResidual float64 `json:"final_residual"`
	// BreakdownIter is the iteration at which pᵀAp lost positivity, 0 when
	// the solve ended by convergence or iteration budget.
	BreakdownIter int `json:"breakdown_iter,omitempty"`

	// Residuals holds the recorded relative residuals in iteration order:
	// the entry at index 0 is the initial residual (iteration 0), with up
	// to ResidualsDropped middle iterations elided between the head and
	// tail segments.
	Residuals        []float64 `json:"residuals"`
	ResidualsDropped int       `json:"residuals_dropped,omitempty"`

	Err string `json:"error,omitempty"`
}

// TraceError attaches a SolveTrace to a solver failure. Unwrap preserves
// errors.Is/As against the underlying cause (ErrNoConvergence, the SPD
// breakdown error, ...).
type TraceError struct {
	Err   error
	Trace *SolveTrace
}

func (e *TraceError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying solver error.
func (e *TraceError) Unwrap() error { return e.Err }

// TraceFromError extracts the flight-recorder trace attached to err, or nil
// when err carries none (recorder off, or a non-solver error).
func TraceFromError(err error) *SolveTrace {
	var te *TraceError
	if errors.As(err, &te) {
		return te.Trace
	}
	return nil
}

// traceRecorder accumulates the trajectory during a solve. Created only
// when the flight recorder is enabled at solve entry.
type traceRecorder struct {
	trace SolveTrace
	head  []float64
	tail  []float64 // circular once full
	pos   int       // next write slot in tail
	n     int       // residuals recorded beyond the head
}

func newTraceRecorder(kind string, a *CSR, x0 []float64, prec Preconditioner, tol float64, maxIter int) *traceRecorder {
	return &traceRecorder{
		trace: SolveTrace{
			Kind:           kind,
			N:              a.N(),
			NNZ:            a.NNZ(),
			Tol:            tol,
			MaxIter:        maxIter,
			Preconditioner: precName(prec),
			WarmStart:      x0 != nil,
		},
		head: make([]float64, 0, traceHeadLen),
	}
}

// record appends one relative residual (called once before the loop for
// iteration 0, then once per iteration).
func (r *traceRecorder) record(res float64) {
	if len(r.head) < traceHeadLen {
		r.head = append(r.head, res)
		return
	}
	if r.tail == nil {
		r.tail = make([]float64, traceTailLen)
	}
	r.tail[r.pos] = res
	r.pos = (r.pos + 1) % traceTailLen
	r.n++
}

// seal flattens the recorder into its trace (ring in iteration order,
// final stats filled) and returns it. Call exactly once per solve.
func (r *traceRecorder) seal(res CGResult) *SolveTrace {
	t := &r.trace
	t.Iterations = res.Iterations
	t.FinalResidual = res.Residual
	t.Residuals = append(t.Residuals, r.head...)
	if r.n > traceTailLen {
		t.ResidualsDropped = r.n - traceTailLen
		for i := 0; i < traceTailLen; i++ {
			t.Residuals = append(t.Residuals, r.tail[(r.pos+i)%traceTailLen])
		}
	} else {
		t.Residuals = append(t.Residuals, r.tail[:r.n]...)
	}
	return t
}

// finish seals the recorder into its trace and wraps err (if any) so the
// trace travels with it.
func (r *traceRecorder) finish(res CGResult, err error) error {
	t := r.seal(res)
	if err == nil {
		return nil
	}
	t.Err = err.Error()
	return &TraceError{Err: err, Trace: t}
}

// precName labels a preconditioner for traces and events.
func precName(p Preconditioner) string {
	switch p.(type) {
	case IdentityPrec, *IdentityPrec:
		return "identity"
	case *JacobiPrec:
		return "jacobi"
	case *IC0Prec:
		return "ic0"
	case *AMGPrec:
		return "amg"
	default:
		return "custom"
	}
}

// flightRecorderOn is a local alias so the hot path reads naturally.
func flightRecorderOn() bool { return telemetry.FlightRecorderEnabled() }
