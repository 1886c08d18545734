package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"voltstack/internal/telemetry"
)

// TestStatsLiveThenFinal drives a job through running → done over HTTP and
// checks the stats document in both phases: a live snapshot while the job
// runs, then a frozen Final document whose bytes never change again. The
// job's queue wait lands once in the process histogram /metrics serves and
// in the document's queue_wait_seconds, not in the job's registry.
func TestStatsLiveThenFinal(t *testing.T) {
	queueWait := telemetry.NewHistogram("job_queue_wait_seconds")
	waits := queueWait.Count()
	release := make(chan struct{})
	started := make(chan struct{})
	mgr, err := NewManager(Config{
		MaxInFlight: 1,
		testJobStart: func(ctx context.Context, j *Job) {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv, err := Start("127.0.0.1:0", mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Base: srv.URL(), Backoff: Backoff{Initial: 10 * time.Millisecond}, Trace: telemetry.NewTrace()}
	ctx := context.Background()

	st, err := c.Submit(ctx, JobRequest{Kind: KindExperiment, Experiments: []string{"table1"}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if got := queueWait.Count() - waits; got != 1 {
		t.Errorf("job_queue_wait_seconds grew by %d when the job started, want 1", got)
	}

	var live JobStats
	b, err := c.Stats(ctx, st.ID)
	if err != nil {
		t.Fatalf("live stats: %v", err)
	}
	if err := json.Unmarshal(b, &live); err != nil {
		t.Fatalf("live stats JSON: %v\n%s", err, b)
	}
	if live.Final {
		t.Error("running job served Final stats")
	}
	if live.State != StateRunning {
		t.Errorf("live state = %s, want running", live.State)
	}
	if live.TraceID != c.Trace.TraceIDString() {
		t.Errorf("live trace ID = %q, want the client's %q", live.TraceID, c.Trace.TraceIDString())
	}

	close(release)
	if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateDone {
		t.Fatalf("wait: %v (state %s)", err, st.State)
	}
	final1, err := c.Stats(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	final2, err := c.Stats(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final1, final2) {
		t.Error("terminal stats changed between reads")
	}
	var fin JobStats
	if err := json.Unmarshal(final1, &fin); err != nil {
		t.Fatalf("final stats JSON: %v", err)
	}
	if !fin.Final || fin.State != StateDone {
		t.Errorf("final doc: final=%v state=%s", fin.Final, fin.State)
	}
	if fin.WallSeconds <= 0 {
		t.Errorf("final wall seconds = %g, want > 0", fin.WallSeconds)
	}
	if fin.QueueWaitSeconds < 0 {
		t.Errorf("negative queue wait %g", fin.QueueWaitSeconds)
	}
	if len(fin.Registry.Histograms) != 0 {
		t.Errorf("final registry carries histograms %v, want none", fin.Registry.Histograms)
	}
	if got := queueWait.Count() - waits; got != 1 {
		t.Errorf("job_queue_wait_seconds grew by %d over one job, want 1", got)
	}
	if st.TraceID != c.Trace.TraceIDString() {
		t.Errorf("status trace ID = %q, want %q", st.TraceID, c.Trace.TraceIDString())
	}
}

func TestStatsUnknownJob404(t *testing.T) {
	mgr, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv, err := Start("127.0.0.1:0", mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Base: srv.URL()}
	var apiErr *APIError
	if _, err := c.Stats(context.Background(), "nope"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("stats of unknown job: %v, want 404", err)
	}
}

// TestStatsSurviveRestart checks the journal leg: a terminal job's stats
// document must be byte-identical when served by a fresh manager that
// adopted the job from the journal after a (simulated) daemon restart —
// including the original trace ID.
func TestStatsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	mgr, err := NewManager(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j, err := mgr.Submit(sweepRequest(), telemetry.NewTrace())
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	before, err := mgr.Stats(j)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	mgr2, err := NewManager(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	j2, ok := mgr2.Get(j.ID())
	if !ok {
		t.Fatal("restarted manager lost the job")
	}
	after, err := mgr2.Stats(j2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("stats changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}
	var doc JobStats
	if err := json.Unmarshal(after, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Final || doc.TraceID == "" || doc.TraceID != j.Trace().TraceIDString() {
		t.Errorf("replayed doc: final=%v trace=%q want %q", doc.Final, doc.TraceID, j.Trace().TraceIDString())
	}
	if doc.TraceID != j2.Trace().TraceIDString() {
		t.Errorf("adopted job lost its trace: %q vs %q", doc.TraceID, j2.Trace().TraceIDString())
	}
	// A sweep's attribution includes the solver-layer counters. (Iteration
	// counts can legitimately be zero — the coarse grid takes the direct
	// solver — so only presence is checked there.)
	if doc.Registry.Counters["job_points_total"] == 0 {
		t.Errorf("sweep stats missing job_points_total: %v", doc.Registry.Counters)
	}
	if doc.Registry.Counters["job_pdn_solves_total"] == 0 {
		t.Errorf("sweep stats missing job_pdn_solves_total: %v", doc.Registry.Counters)
	}
	if _, ok := doc.Registry.Counters["job_solver_iterations_total"]; !ok {
		t.Errorf("sweep stats missing job_solver_iterations_total key: %v", doc.Registry.Counters)
	}
}

// TestSubmitWithoutTraceparentMints pins that every job carries a valid
// trace ID even when the submitter sent none.
func TestSubmitWithoutTraceparentMints(t *testing.T) {
	mgr, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	j, err := mgr.Submit(JobRequest{Kind: KindExperiment, Experiments: []string{"table1"}}, telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if !j.Trace().Valid() {
		t.Error("submitted job has no trace context")
	}
	if st := j.Status(); len(st.TraceID) != 32 {
		t.Errorf("status trace ID %q, want 32 hex chars", st.TraceID)
	}
}

// TestStatsConvergenceRecord runs the same two-design sweep on two fresh
// managers at two workers, so the designs' PCG solves finish in either
// order. Each job's convergence record is the whole report of its hardest
// solve: the same bytes in both, and converged.
func TestStatsConvergenceRecord(t *testing.T) {
	req := JobRequest{
		Kind: KindSweep,
		Sweep: &SweepSpec{
			Layers:         8,
			PadFractions:   []float64{0.5},
			ConverterCount: []int{2, 4},
			TSVs:           []string{"dense"},
			GridNx:         24,
		},
		Workers: 2,
	}
	var recs [2][]byte
	for i := range recs {
		mgr, err := NewManager(Config{})
		if err != nil {
			t.Fatal(err)
		}
		j, err := mgr.Submit(req, telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("run %d: %s %s", i, st.State, st.Error)
		}
		b, err := mgr.Stats(j)
		mgr.Close()
		if err != nil {
			t.Fatal(err)
		}
		var doc JobStats
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Convergence == nil || !doc.Convergence.Converged {
			t.Fatalf("run %d: convergence record = %+v, want a converged report", i, doc.Convergence)
		}
		if recs[i], err = json.Marshal(doc.Convergence); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(recs[0], recs[1]) {
		t.Errorf("convergence records differ:\n%s\n%s", recs[0], recs[1])
	}
}

// TestStudyJobsAttributeSolves: experiment and em-mc jobs run Study
// drivers, and each of their PDN solves counts in the job's scope, offers
// its report to the job's convergence record, and opens its span under
// the job's trace.
func TestStudyJobsAttributeSolves(t *testing.T) {
	tr := telemetry.EnableTracing()
	defer telemetry.DisableTracing()
	mgr, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	run := func(req JobRequest) (*Job, JobStats) {
		t.Helper()
		j, err := mgr.Submit(req, telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("%s job: %s %s", req.Kind, st.State, st.Error)
		}
		b, err := mgr.Stats(j)
		if err != nil {
			t.Fatal(err)
		}
		var doc JobStats
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		return j, doc
	}

	j, doc := run(JobRequest{Kind: KindExperiment, Experiments: []string{"fig5a"}, Coarse: true})
	c := doc.Registry.Counters
	if c["job_pdn_solves_total"] != 16 || c["job_health_reports_total"] != 4 {
		t.Errorf("fig5a job counted %d PDN solves, %d probed; want 16, 4",
			c["job_pdn_solves_total"], c["job_health_reports_total"])
	}
	if doc.Convergence == nil || !doc.Convergence.Converged {
		t.Errorf("fig5a job's convergence record = %+v, want a converged report", doc.Convergence)
	}
	spans := 0
	for _, e := range tr.Events() {
		if e.Name == "pdngrid.solve" && e.TraceID == j.Trace().TraceIDString() {
			spans++
		}
	}
	if spans != 16 {
		t.Errorf("%d pdngrid.solve spans carry the fig5a job's trace ID, want 16", spans)
	}

	_, doc = run(JobRequest{Kind: KindEMMC, Trials: 50, Coarse: true})
	if got := doc.Registry.Counters["job_pdn_solves_total"]; got != 1 || doc.Convergence == nil {
		t.Errorf("em-mc job counted %d PDN solves with record %+v, want 1 with a record", got, doc.Convergence)
	}
}
