package sparse

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"voltstack/internal/telemetry"
)

// indefinite2x2 is symmetric with eigenvalues 3 and -1: PCG breaks down on
// it (pᵀAp < 0) and IC(0) cannot factor it at any shift in the ladder.
func indefinite2x2() *CSR {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	b.AddSym(0, 1, 2)
	return b.ToCSR()
}

func TestTraceRecorderRing(t *testing.T) {
	a := gridLaplacian(2, 2, 1)
	rec := newTraceRecorder("pcg", a, nil, IdentityPrec{}, 1e-9, 10)
	const total = traceHeadLen + traceTailLen + 100
	for i := 0; i < total; i++ {
		rec.record(float64(i))
	}
	err := rec.finish(CGResult{Iterations: total - 1, Residual: float64(total - 1)},
		fmt.Errorf("%w: synthetic", ErrNoConvergence))
	tr := TraceFromError(err)
	if tr == nil {
		t.Fatal("no trace attached")
	}
	if got := len(tr.Residuals); got != traceHeadLen+traceTailLen {
		t.Fatalf("kept %d residuals, want %d", got, traceHeadLen+traceTailLen)
	}
	if tr.ResidualsDropped != 100 {
		t.Errorf("dropped = %d, want 100", tr.ResidualsDropped)
	}
	// Head keeps the first residuals in order...
	for i := 0; i < traceHeadLen; i++ {
		if tr.Residuals[i] != float64(i) {
			t.Fatalf("head[%d] = %g, want %d", i, tr.Residuals[i], i)
		}
	}
	// ...and the tail keeps the final ones, still in iteration order.
	for i := 0; i < traceTailLen; i++ {
		want := float64(total - traceTailLen + i)
		if got := tr.Residuals[traceHeadLen+i]; got != want {
			t.Fatalf("tail[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestPCGNonConvergenceAttachesTrace(t *testing.T) {
	telemetry.EnableFlightRecorder()
	defer telemetry.DisableFlightRecorder()

	a := gridLaplacian(20, 20, 1e-6)
	b := make([]float64, a.N())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	const maxIter = 5
	_, res, err := PCG(a, b, nil, nil, 1e-14, maxIter, nil)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("errors.Is(ErrNoConvergence) lost through the trace wrapper: %v", err)
	}
	tr := TraceFromError(err)
	if tr == nil {
		t.Fatal("non-convergence carried no trace")
	}
	if tr.Kind != "pcg" || tr.N != a.N() || tr.NNZ != a.NNZ() {
		t.Errorf("trace shape = %q n=%d nnz=%d, want pcg %d %d", tr.Kind, tr.N, tr.NNZ, a.N(), a.NNZ())
	}
	if tr.Preconditioner != "identity" {
		t.Errorf("preconditioner = %q", tr.Preconditioner)
	}
	if tr.WarmStart {
		t.Error("warm start recorded for a zero initial guess")
	}
	if tr.Iterations != maxIter || tr.Iterations != res.Iterations {
		t.Errorf("iterations = %d, want %d", tr.Iterations, maxIter)
	}
	// Iteration 0 plus one residual per iteration.
	if len(tr.Residuals) != maxIter+1 {
		t.Errorf("trajectory has %d points, want %d", len(tr.Residuals), maxIter+1)
	}
	if tr.FinalResidual != res.Residual {
		t.Errorf("final residual %g != result %g", tr.FinalResidual, res.Residual)
	}
	if tr.Err == "" {
		t.Error("trace did not record the error string")
	}
	// The trace must serialize: it is the post-mortem artifact payload.
	if _, err := json.Marshal(tr); err != nil {
		t.Fatalf("trace not serializable: %v", err)
	}

	// Warm-started solve records its origin.
	x0 := make([]float64, a.N())
	_, _, err = PCG(a, b, x0, nil, 1e-14, maxIter, nil)
	if tr := TraceFromError(err); tr == nil || !tr.WarmStart {
		t.Error("warm start not recorded")
	}
}

func TestPCGTraceOffByDefault(t *testing.T) {
	if telemetry.FlightRecorderEnabled() {
		t.Fatal("flight recorder enabled at test entry")
	}
	a := gridLaplacian(20, 20, 1e-6)
	b := make([]float64, a.N())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	_, _, err := PCG(a, b, nil, nil, 1e-14, 3, nil)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want non-convergence, got %v", err)
	}
	if tr := TraceFromError(err); tr != nil {
		t.Errorf("trace recorded with the gate off: %+v", tr)
	}
}

func TestPCGBreakdownTrace(t *testing.T) {
	telemetry.EnableFlightRecorder()
	defer telemetry.DisableFlightRecorder()

	// b chosen so pᵀAp = bᵀAb = -2 < 0 on the very first iteration.
	_, _, err := PCG(indefinite2x2(), []float64{1, -1}, nil, IdentityPrec{}, 1e-12, 50, nil)
	if err == nil {
		t.Fatal("indefinite solve succeeded")
	}
	if errors.Is(err, ErrNoConvergence) {
		t.Fatalf("breakdown misclassified as non-convergence: %v", err)
	}
	tr := TraceFromError(err)
	if tr == nil {
		t.Fatal("breakdown carried no trace")
	}
	if tr.BreakdownIter != 1 {
		t.Errorf("breakdown iter = %d, want 1", tr.BreakdownIter)
	}
	if !strings.Contains(tr.Err, "not SPD") {
		t.Errorf("trace error = %q", tr.Err)
	}
}

func TestIC0ShiftExhaustion(t *testing.T) {
	_, err := NewIC0(indefinite2x2())
	if err == nil {
		t.Fatal("IC(0) factored an indefinite matrix")
	}
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("errors.Is(ErrNotPositiveDefinite) lost: %v", err)
	}
	if !strings.Contains(err.Error(), "breakdown persists after") {
		t.Errorf("exhaustion error lacks shift count: %v", err)
	}
	if !strings.Contains(err.Error(), "row") {
		t.Errorf("exhaustion error lacks the failing row: %v", err)
	}
}

// TestIC0ShiftRecoveryEvent checks the shift ladder rescues a borderline
// matrix and reports it through the structured event log.
func TestIC0ShiftRecoveryEvent(t *testing.T) {
	var buf bytes.Buffer
	telemetry.EnableEventLog(&buf, slog.LevelInfo)
	defer telemetry.DisableEventLog()

	// Slightly indefinite: unit diagonal with off-diagonal 1.01; a small
	// diagonal shift (the 1.6e-2 rung) makes it factorable.
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	b.AddSym(0, 1, 1.01)
	p, err := NewIC0(b.ToCSR())
	if err != nil {
		t.Fatalf("shift ladder failed to rescue: %v", err)
	}
	if p == nil {
		t.Fatal("nil preconditioner")
	}
	if !strings.Contains(buf.String(), "diagonal shift applied") {
		t.Errorf("no shift event emitted:\n%s", buf.String())
	}
}
