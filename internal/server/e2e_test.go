package server

import (
	"bytes"
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"voltstack/internal/core"
	"voltstack/internal/rescache"
	"voltstack/internal/telemetry"
)

// Solver-work counters used to prove that cached replays do zero new
// model evaluations. NewCounter returns the process-registry instrument
// the solvers themselves increment.
var (
	cSolves     = telemetry.NewCounter("pdngrid_solves_total")
	cPCGIters   = telemetry.NewCounter("sparse_pcg_iterations_total")
	cEvalPoints = telemetry.NewCounter("explore_points_total")
)

// Acceptance (a)+(b): a job submitted over loopback renders exactly the
// bytes the CLI pipeline produces, and an identical resubmission is
// served from the result cache with zero new solver work.
func TestE2EExperimentParityAndCacheHit(t *testing.T) {
	telemetry.Enable()
	cache, err := rescache.New(rescache.Config{Dir: filepath.Join(t.TempDir(), "cache")})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Config{Cache: cache, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv, err := Start("127.0.0.1:0", mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Base: srv.URL(), Poll: 20 * time.Millisecond}
	ctx := context.Background()

	req := JobRequest{Kind: KindExperiment, Experiments: []string{"fig5a"}, CSV: true, Coarse: true}
	res, st, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.CacheHit {
		t.Error("first submission reported a cache hit")
	}

	// The CLI pipeline: same study construction as vsexplore with
	// -exp fig5a -csv -coarse (defaults: seed 1, workers GOMAXPROCS).
	s := core.NewStudy().Coarse()
	want, err := core.RunExperiment(s, "fig5a", true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, []byte(want)) {
		t.Fatalf("served fig5a CSV differs from the CLI rendering:\n got %q\nwant %q", res, want)
	}

	// Text mode concatenates each rendering plus a blank line, exactly
	// like vsexplore's print loop.
	res2, _, err := c.Run(ctx, JobRequest{Kind: KindExperiment, Experiments: []string{"table1", "table2"}})
	if err != nil {
		t.Fatalf("text job: %v", err)
	}
	t1, _ := core.RunExperiment(s, "table1", false)
	t2, _ := core.RunExperiment(s, "table2", false)
	if want := t1 + "\n" + t2 + "\n"; string(res2) != want {
		t.Errorf("text concatenation differs from the CLI print loop:\n got %q\nwant %q", res2, want)
	}

	// Resubmission: byte-identical result, cache-hit flag, and — the
	// point of content addressing — zero new solver iterations.
	solves0, iters0 := cSolves.Value(), cPCGIters.Value()
	resAgain, stAgain, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !stAgain.CacheHit {
		t.Error("identical resubmission not served from the cache")
	}
	if !bytes.Equal(resAgain, res) {
		t.Error("cached replay is not byte-identical")
	}
	if ds, di := cSolves.Value()-solves0, cPCGIters.Value()-iters0; ds != 0 || di != 0 {
		t.Errorf("cached replay did solver work: %d PDN solves, %d PCG iterations", ds, di)
	}
}

// Acceptance (c): kill the daemon mid-sweep, restart it on the same
// state dir with an empty cache, and the job resumes from its checkpoint
// — evaluating only the missing points — with output identical to an
// uninterrupted run.
func TestE2ESweepResumeAfterKill(t *testing.T) {
	telemetry.Enable()
	stateDir := t.TempDir()
	req := sweepRequest() // 3 designs, workers=1 → strict index order

	killReady := make(chan struct{})
	release := make(chan struct{})
	var points atomic.Int64
	cache1, err := rescache.New(rescache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mgr1, err := NewManager(Config{
		Cache:    cache1,
		StateDir: stateDir,
		testOnPoint: func(_ string, _ int) {
			if points.Add(1) == 2 {
				close(killReady) // two points checkpointed; hold the worker
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := Start("127.0.0.1:0", mgr1)
	if err != nil {
		t.Fatal(err)
	}
	c1 := &Client{Base: srv1.URL(), Poll: 20 * time.Millisecond}
	st, err := c1.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	<-killReady
	// Simulate the kill: cancel the manager's base context first so the
	// serial evaluation loop stops before dispatching point 3, then let
	// the held worker go and join everything.
	mgr1.cancel()
	close(release)
	srv1.Close()

	// Restart on the same journal with a fresh, empty cache: the only
	// replay source is the checkpoint. Exactly one point (the third) may
	// be evaluated fresh.
	cache2, err := rescache.New(rescache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	evals0 := cEvalPoints.Value()
	mgr2, err := NewManager(Config{Cache: cache2, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	srv2, err := Start("127.0.0.1:0", mgr2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	c2 := &Client{Base: srv2.URL(), Poll: 20 * time.Millisecond}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	stDone, err := c2.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait for resumed job: %v", err)
	}
	if stDone.State != StateDone {
		t.Fatalf("resumed job: %s (%s)", stDone.State, stDone.Error)
	}
	if !stDone.Resumed {
		t.Error("resumed job not flagged as resumed")
	}
	if stDone.Completed != 3 || stDone.Total != 3 {
		t.Errorf("resumed progress %d/%d, want 3/3", stDone.Completed, stDone.Total)
	}
	if fresh := cEvalPoints.Value() - evals0; fresh != 1 {
		t.Errorf("resume evaluated %d points fresh, want 1 (checkpoint replay for the rest)", fresh)
	}

	got, err := c2.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	// An uninterrupted run of the identical space must produce the same
	// bytes.
	norm := req
	norm.Normalize()
	sp := buildSpace(norm)
	direct, err := sp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := rescache.CanonicalJSON(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed sweep result differs from an uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// A second manager sharing only the disk cache (not the journal) replays
// every point from the content-addressed cache: same bytes, no PDN
// solves.
func TestE2ESweepPointCacheSharedAcrossDaemons(t *testing.T) {
	telemetry.Enable()
	cacheDir := filepath.Join(t.TempDir(), "cache")
	req := sweepRequest()

	cache1, err := rescache.New(rescache.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	mgr1, err := NewManager(Config{Cache: cache1})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := mgr1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	res1, err := mgr1.Result(j1)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	mgr1.Close()

	// New daemon, same cache dir, and a different seed: the seed changes
	// the job-level key (it matters for Monte Carlo jobs) but no sweep
	// point depends on it, so this forces the per-point replay path
	// rather than a whole-job hit.
	cache2, err := rescache.New(rescache.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	mgr2, err := NewManager(Config{Cache: cache2})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	solves0 := cSolves.Value()
	req2 := req
	req2.Seed = 5
	j2, err := mgr2.Submit(req2)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	res2, err := mgr2.Result(j2)
	if err != nil {
		t.Fatalf("second sweep: %v", err)
	}
	if !bytes.Equal(res1, res2) {
		t.Error("sweep results differ across daemons sharing the point cache")
	}
	if ds := cSolves.Value() - solves0; ds != 0 {
		t.Errorf("second daemon did %d PDN solves, want 0 (all points cached on disk)", ds)
	}
}
