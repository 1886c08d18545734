package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"voltstack/internal/server"
	"voltstack/internal/telemetry"
)

// health runs cmdHealth against a stub daemon that serves doc as the
// job's stats document, and returns what it printed.
func health(t *testing.T, doc server.JobStats) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(doc)
	}))
	defer srv.Close()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = cmdHealth(context.Background(), &server.Client{Base: srv.URL}, doc.ID)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHealthFailedRecord: a job whose one PDN solve failed counts no
// solve, since the counters count only the solves that succeeded, but
// its record holds the failed report. health renders that record and
// says it did not converge; a job with neither a solve nor a record
// still says why no solve ran.
func TestHealthFailedRecord(t *testing.T) {
	failed := &telemetry.ConvergenceReport{
		Kind: "pcg", Tol: 1e-16, MaxIter: 2, Iterations: 2,
		FinalResidual: 3e-3, CondEstimate: 40, LambdaMin: 0.05, LambdaMax: 2,
		Residuals: []float64{1, 0.1, 3e-3},
	}
	got := health(t, server.JobStats{ID: "j1", Kind: server.KindSweep, State: server.StateFailed, Convergence: failed})
	for _, want := range []string{"did not converge: residual 3.000e-03 after 2 of 2 iterations", "cond(M^-1 A) ~ 40", "residual curve"} {
		if !strings.Contains(got, want) {
			t.Errorf("failed record: output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "no PDN solve ran") {
		t.Errorf("failed record reported as no solve:\n%s", got)
	}

	got = health(t, server.JobStats{ID: "j2", Kind: server.KindExperiment, State: server.StateDone})
	if !strings.Contains(got, "no PDN solve ran for this job") || strings.Contains(got, "did not converge") {
		t.Errorf("job with no solve and no record:\n%s", got)
	}
}
