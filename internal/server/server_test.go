package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"voltstack/internal/explore"
	"voltstack/internal/pdngrid"
	"voltstack/internal/rescache"
	"voltstack/internal/telemetry"
)

func sweepRequest() JobRequest {
	imb := 0.65
	return JobRequest{
		Kind: KindSweep,
		Sweep: &SweepSpec{
			Layers:         2,
			Imbalance:      &imb,
			PadFractions:   []float64{0.5},
			ConverterCount: []int{2, 4},
			TSVs:           []string{"dense"},
			GridNx:         8,
			GridNy:         8,
		},
		Workers: 1,
	}
}

func TestNormalizeFillsDefaults(t *testing.T) {
	spelled := JobRequest{
		Kind: KindSweep,
		Seed: 1,
		Sweep: &SweepSpec{
			Layers:         8,
			PadFractions:   []float64{0.25, 0.5, 1.0},
			ConverterCount: []int{2, 4, 6, 8},
			TSVs:           []string{"dense", "sparse", "few"},
			GridNx:         32,
			GridNy:         32,
		},
	}
	imb := 0.65
	spelled.Sweep.Imbalance = &imb
	defaulted := JobRequest{Kind: "Sweep", Sweep: &SweepSpec{}}
	defaulted.Normalize()
	spelled.Normalize()
	for _, r := range []*JobRequest{&spelled, &defaulted} {
		if err := r.Validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
	}
	kSpelled, err := jobCacheKey(spelled)
	if err != nil {
		t.Fatal(err)
	}
	kDefaulted, err := jobCacheKey(defaulted)
	if err != nil {
		t.Fatal(err)
	}
	if kSpelled != kDefaulted {
		t.Errorf("defaulted and spelled-out requests hash differently:\n%s\n%s", kDefaulted, kSpelled)
	}
}

func TestJobCacheKeyIgnoresWorkers(t *testing.T) {
	a := JobRequest{Kind: KindExperiment, Experiments: []string{"table1"}, Workers: 1}
	b := JobRequest{Kind: KindExperiment, Experiments: []string{"table1"}, Workers: 8}
	a.Normalize()
	b.Normalize()
	ka, err := jobCacheKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := jobCacheKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("worker count changed the cache key")
	}
	c := a
	c.Seed = 7
	kc, err := jobCacheKey(c)
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Error("seed did not change the cache key")
	}
}

func TestValidateFieldErrors(t *testing.T) {
	imbBad := 1.5
	cases := []struct {
		name  string
		req   JobRequest
		field string
	}{
		{"no kind", JobRequest{}, "kind"},
		{"bad kind", JobRequest{Kind: "zap"}, "kind"},
		{"no experiments", JobRequest{Kind: KindExperiment}, "experiments"},
		{"unknown experiment", JobRequest{Kind: KindExperiment, Experiments: []string{"nope"}}, "experiments"},
		{"csv-less experiment", JobRequest{Kind: KindExperiment, Experiments: []string{"thermal"}, CSV: true}, "csv"},
		{"experiment with sweep", JobRequest{Kind: KindExperiment, Experiments: []string{"table1"}, Sweep: &SweepSpec{}}, "sweep"},
		{"sweep without spec", JobRequest{Kind: KindSweep}, "sweep"},
		{"sweep layers", JobRequest{Kind: KindSweep, Sweep: &SweepSpec{Layers: 99}}, "sweep.layers"},
		{"sweep imbalance", JobRequest{Kind: KindSweep, Sweep: &SweepSpec{Imbalance: &imbBad}}, "sweep.imbalance"},
		{"sweep pad fraction", JobRequest{Kind: KindSweep, Sweep: &SweepSpec{PadFractions: []float64{2}}}, "sweep.pad_fractions"},
		{"sweep converters", JobRequest{Kind: KindSweep, Sweep: &SweepSpec{ConverterCount: []int{0}}}, "sweep.converter_count"},
		{"sweep tsv", JobRequest{Kind: KindSweep, Sweep: &SweepSpec{TSVs: []string{"coax"}}}, "sweep.tsvs"},
		{"sweep dup tsv", JobRequest{Kind: KindSweep, Sweep: &SweepSpec{TSVs: []string{"dense", "dense"}}}, "sweep.tsvs"},
		{"sweep grid", JobRequest{Kind: KindSweep, Sweep: &SweepSpec{GridNx: 2}}, "sweep.grid_nx"},
		{"em-mc trials", JobRequest{Kind: KindEMMC}, "trials"},
		{"workers", JobRequest{Kind: KindEMMC, Trials: 10, Workers: -1}, "workers"},
		{"seed", JobRequest{Kind: KindEMMC, Trials: 10, Seed: -3}, "seed"},
	}
	for _, tc := range cases {
		req := tc.req
		req.Normalize()
		err := req.Validate()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a FieldError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: error names field %q, want %q (%v)", tc.name, fe.Field, tc.field, err)
		}
	}
}

func TestDecodeJobRequestStrict(t *testing.T) {
	for _, tc := range []struct{ name, body, wantSub string }{
		{"garbage", "not json", "invalid job request"},
		{"empty", "", "empty body"},
		{"unknown field", `{"kind":"em-mc","trials":1,"zap":true}`, "unknown field"},
		{"trailing data", `{"kind":"em-mc","trials":1} {}`, "trailing data"},
		{"wrong type", `{"kind":3}`, "invalid job request"},
		{"huge number", `{"kind":"sweep","sweep":{"imbalance":1e999}}`, "invalid job request"},
	} {
		_, err := DecodeJobRequest(strings.NewReader(tc.body))
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
	req, err := DecodeJobRequest(strings.NewReader(`{"kind":"experiment","experiments":["TABLE1"]}`))
	if err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if req.Experiments[0] != "table1" || req.Seed != 1 {
		t.Errorf("request not normalized: %+v", req)
	}
}

// Acceptance (d): submissions past the admission bound get 429 while
// admitted jobs keep running, and a drain finishes the backlog while new
// submissions get 503.
func TestAdmissionControlAndDrain(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	mgr, err := NewManager(Config{
		MaxInFlight: 1,
		QueueDepth:  1,
		RetryAfter:  3 * time.Second,
		testJobStart: func(ctx context.Context, j *Job) {
			started <- j.ID()
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
	c := &Client{Base: srv.URL(), Backoff: Backoff{Initial: 10 * time.Millisecond}}
	ctx := context.Background()

	// Distinct seeds make distinct jobs (no job-level dedup).
	mk := func(seed int64) JobRequest {
		return JobRequest{Kind: KindExperiment, Experiments: []string{"table1"}, Seed: seed}
	}
	stA, err := c.Submit(ctx, mk(2))
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	<-started // A occupies the only runner
	stB, err := c.Submit(ctx, mk(3))
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}
	// Queue (depth 1) now holds B: the next submission must bounce.
	_, err = c.Submit(ctx, mk(4))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit C: err = %v, want 429", err)
	}
	if apiErr.RetryAfter < time.Second {
		t.Errorf("429 carried Retry-After %v, want >= 1s", apiErr.RetryAfter)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Manager.Drain(context.Background()) }()
	for !mgr.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Submit(ctx, mk(5)); err == nil {
		t.Error("submission during drain succeeded, want 503")
	} else if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission during drain: err = %v, want 503", err)
	}

	close(release) // let A (and then B) finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{stA.ID, stB.ID} {
		st, err := c.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Errorf("after drain, job %s is %s, want done", id, st.State)
		}
	}
}

func TestCancel(t *testing.T) {
	entered := make(chan struct{}, 2)
	mgr, err := NewManager(Config{
		MaxInFlight: 1,
		QueueDepth:  2,
		testJobStart: func(ctx context.Context, j *Job) {
			entered <- struct{}{}
			<-ctx.Done() // hold the job until cancelled
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	running, err := mgr.Submit(JobRequest{Kind: KindExperiment, Experiments: []string{"table1"}, Seed: 2}, telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	queued, err := mgr.Submit(JobRequest{Kind: KindExperiment, Experiments: []string{"table1"}, Seed: 3}, telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := mgr.Cancel(queued.ID()); !ok || j.Status().State != StateCancelled {
		t.Errorf("queued job after cancel: %+v", j.Status())
	}
	if _, ok := mgr.Cancel(running.ID()); !ok {
		t.Fatal("running job unknown to Cancel")
	}
	select {
	case <-running.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job never terminated")
	}
	if st := running.Status(); st.State != StateCancelled {
		t.Errorf("running job after cancel: state %s, want cancelled", st.State)
	}
	if _, ok := mgr.Cancel("j999-nope"); ok {
		t.Error("Cancel of unknown id reported ok")
	}
}

// TestCancelRunningEMMC: cancelling an em-mc job stops its Monte Carlo
// sampling instead of letting it finish the trial budget. A 1,000,000-trial
// coarse job samples for tens of seconds; cancelled, it must be terminal
// within 2 s.
func TestCancelRunningEMMC(t *testing.T) {
	started := make(chan struct{}, 1)
	mgr, err := NewManager(Config{
		MaxInFlight:  1,
		testJobStart: func(context.Context, *Job) { started <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	j, err := mgr.Submit(JobRequest{Kind: KindEMMC, Trials: 1_000_000, Coarse: true}, telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Let the job solve its PDN and start sampling. The bound below holds
	// wherever in the job the cancel lands; the pause makes it land in
	// the sampling loop, past the job's entry check of its context.
	time.Sleep(300 * time.Millisecond)
	t0 := time.Now()
	if _, ok := mgr.Cancel(j.ID()); !ok {
		t.Fatal("running job unknown to Cancel")
	}
	select {
	case <-j.Done():
	case <-time.After(2 * time.Second):
		t.Fatalf("em-mc job still running %v after Cancel", time.Since(t0).Round(time.Millisecond))
	}
	if st := j.Status(); st.State != StateCancelled {
		t.Errorf("em-mc job after cancel: state %s, want cancelled", st.State)
	}
}

func TestHTTPStatusCodes(t *testing.T) {
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

	resp, err := http.Post(srv.URL()+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"zap"}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "kind") {
		t.Errorf("bad submit: status %d, body %+v", resp.StatusCode, eb)
	}

	c := &Client{Base: srv.URL()}
	ctx := context.Background()
	var apiErr *APIError
	if _, err := c.Status(ctx, "jX-missing"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("status of unknown job: %v, want 404", err)
	}
	if _, err := c.Result(ctx, "jX-missing"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("result of unknown job: %v, want 404", err)
	}
	st, err := c.Submit(ctx, sweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateDone {
		t.Fatalf("wait: %v (state %s)", err, st.State)
	}

	// The observability endpoints share the listener: /metrics serves the
	// daemon's live counters (here, the requests above), /healthz and
	// pprof answer, and /statusz is gone. The job's counters stay in its
	// stats document: /metrics lists no job_ counter.
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}
	code, body := get("/metrics")
	var requests int64
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "server_requests_total "); ok {
			requests, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	if code != http.StatusOK || requests < 3 {
		t.Errorf("/metrics: status %d, server_requests_total %d, want 200 and the 3 requests above counted:\n%s", code, requests, body)
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE job_") && strings.HasSuffix(line, " counter") {
			t.Errorf("/metrics lists a job counter: %q", line)
		}
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("/healthz: status %d, body %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d, want 200", code)
	}
	if code, _ := get("/statusz"); code != http.StatusNotFound {
		t.Errorf("/statusz: status %d, want 404", code)
	}
}

func TestResultConflictBeforeDone(t *testing.T) {
	release := make(chan struct{})
	mgr, err := NewManager(Config{
		MaxInFlight: 1,
		testJobStart: func(ctx context.Context, j *Job) {
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
	c := &Client{Base: srv.URL(), Backoff: Backoff{Initial: 10 * time.Millisecond}}
	ctx := context.Background()

	st, err := c.Submit(ctx, JobRequest{Kind: KindExperiment, Experiments: []string{"table1"}})
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if _, err := c.Result(ctx, st.ID); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Errorf("result before done: %v, want 409", err)
	}
	close(release)
	if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateDone {
		t.Fatalf("wait: %v (state %s)", err, st.State)
	}
	if _, err := c.Result(ctx, st.ID); err != nil {
		t.Errorf("result after done: %v", err)
	}
}

// GET /v1/designs:evaluate must return exactly the canonical JSON of a
// direct explore.Space.Evaluate, and serve repeats from the cache.
func TestEvaluateEndpoint(t *testing.T) {
	cache, err := rescache.New(rescache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv, err := Start("127.0.0.1:0", mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const query = "/v1/designs:evaluate?kind=vs&layers=2&tsv=dense&pad_fraction=0.5&converters=2&imbalance=0.65&grid=8"
	get := func() (int, []byte) {
		resp, err := http.Get(srv.URL() + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	code, body := get()
	if code != http.StatusOK {
		t.Fatalf("evaluate status %d: %s", code, body)
	}

	sp := explore.DefaultSpace()
	sp.Layers = 2
	sp.Imbalance = 0.65
	sp.Params.GridNx, sp.Params.GridNy = 8, 8
	d := explore.Design{Kind: pdngrid.VoltageStacked, TSV: pdngrid.DenseTSV(), PadPowerFraction: 0.5, ConvertersPerCore: 2}
	m, err := sp.Evaluate(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rescache.CanonicalJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Errorf("evaluate endpoint:\n got %s\nwant %s", body, want)
	}

	if n := cache.Len(); n != 1 {
		t.Errorf("cache holds %d entries after evaluate, want 1", n)
	}
	code2, body2 := get()
	if code2 != http.StatusOK || string(body2) != string(body) {
		t.Errorf("repeat evaluate differs: status %d", code2)
	}
	if n := cache.Len(); n != 1 {
		t.Errorf("repeat evaluate grew the cache to %d entries", n)
	}

	resp, err := http.Get(srv.URL() + "/v1/designs:evaluate?tsv=coax")
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "tsv") {
		t.Errorf("bad tsv param: status %d, body %+v", resp.StatusCode, eb)
	}
}

// The progress counter must track sweep points as they complete.
func TestSweepProgressCounter(t *testing.T) {
	var seen atomic.Int64
	mgr, err := NewManager(Config{
		testOnPoint: func(string, int) { seen.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	j, err := mgr.Submit(sweepRequest(), telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("sweep job: %s (%s)", st.State, st.Error)
	}
	if st.Total != 3 || st.Completed != 3 {
		t.Errorf("progress %d/%d, want 3/3", st.Completed, st.Total)
	}
	if got := seen.Load(); got != 3 {
		t.Errorf("point hook fired %d times, want 3", got)
	}
}
