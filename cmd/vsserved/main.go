// Command vsserved is the voltstack evaluation daemon: it serves the
// HTTP/JSON job API (submit, status, result, cancel, plus synchronous
// single-design evaluation) backed by a content-addressed result cache,
// bounded admission control and a job journal.
//
// Usage:
//
//	vsserved [-addr HOST:PORT] [-state-dir DIR] [-cache-dir DIR]
//	         [-cache-entries N] [-cache-bytes N] [-max-inflight N]
//	         [-queue N] [-retry-after D] [-drain-timeout D]
//	         [-metrics PATH] [-trace PATH] [-events PATH] [-manifest PATH] ...
//
// The API listener also serves the observability endpoints (/metrics,
// /healthz, /statusz, /debug/pprof), so the daemon's server_* and
// rescache_* metrics are always one curl away. With -state-dir, job
// state is journaled: completed results survive a restart and jobs
// interrupted mid-run resume from their checkpoints, replaying finished
// sweep points bit-identically instead of recomputing them.
//
// SIGINT/SIGTERM drains gracefully — admission stops (new submissions
// get 503), queued and running jobs finish, then the process exits. A
// second signal (or -drain-timeout expiring) hard-cancels in-flight
// jobs; they stay resumable in the journal. The signal handler is
// installed before the listener opens, so a signal that arrives as soon
// as the daemon prints its address still drains.
//
// Several daemons share results through -cache-dir: the on-disk cache is
// content-addressed, so a point one daemon computed is served from disk
// by any other daemon pointed at the same directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"voltstack/internal/rescache"
	"voltstack/internal/server"
	"voltstack/internal/telemetry"
	"voltstack/internal/telemetry/history"
)

func main() {
	addr := flag.String("addr", "localhost:8324", "listen address for the job API and observability endpoints")
	stateDir := flag.String("state-dir", "", "journal job state here (enables restart resume; empty: in-memory only)")
	cacheDir := flag.String("cache-dir", "", "spill the result cache to this directory (shared across restarts and daemons)")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory result cache entry budget (0: 4096)")
	cacheBytes := flag.Int64("cache-bytes", 0, "in-memory result cache byte budget (0: 256 MiB)")
	maxInflight := flag.Int("max-inflight", 2, "jobs running concurrently")
	queueDepth := flag.Int("queue", 8, "queued-job bound; submissions beyond it get 429")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint attached to 429 rejections")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Minute, "graceful-shutdown budget before in-flight jobs are hard-cancelled")
	historySegBytes := flag.Int64("history-segment-bytes", 0, "history segment rotation budget in bytes (0: 1 MiB)")
	historySegments := flag.Int("history-segments", 0, "history segments retained (0: 8)")
	tf := telemetry.RegisterFlags()
	flag.Parse()

	// A daemon always records metrics: the /metrics endpoint it exposes
	// should never silently read zero. Convergence probes ride along: the
	// daemon is exactly where "is the solver healthy?" must be answerable
	// live, and the probes are guaranteed not to perturb results.
	telemetry.Enable()
	telemetry.EnableConvergenceProbes()
	// The daemon shares the -history store of the common flag set: Init
	// opens it, the job manager appends one record per finished job, and
	// the telemetry flush appends the daemon's own run record on exit.
	tf.HistoryOptions = history.Options{
		SegmentBytes: *historySegBytes,
		MaxSegments:  *historySegments,
	}
	flush, err := tf.Init()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsserved:", err)
		os.Exit(1)
	}
	fail := func(err error) {
		flush()
		fmt.Fprintln(os.Stderr, "vsserved:", err)
		os.Exit(1)
	}

	cache, err := rescache.New(rescache.Config{
		MaxEntries: *cacheEntries,
		MaxBytes:   *cacheBytes,
		Dir:        *cacheDir,
	})
	if err != nil {
		fail(err)
	}
	hist := tf.HistoryStore()
	if hist != nil {
		fmt.Fprintf(os.Stderr, "vsserved: appending job history under %s\n", tf.History)
	}
	mgr, err := server.NewManager(server.Config{
		MaxInFlight: *maxInflight,
		QueueDepth:  *queueDepth,
		Cache:       cache,
		StateDir:    *stateDir,
		RetryAfter:  *retryAfter,
		History:     hist,
	})
	if err != nil {
		fail(err)
	}
	// Catch signals before the listener opens: a client may act on the
	// "serving" line at once, and a SIGTERM before Notify would kill the
	// daemon without a drain.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	srv, err := server.Start(*addr, mgr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "vsserved: serving http://%s/v1/jobs (build %s)\n", srv.Addr(), telemetry.BuildStamp())
	if *stateDir != "" {
		fmt.Fprintf(os.Stderr, "vsserved: journaling job state under %s\n", *stateDir)
	}

	s := <-sig
	fmt.Fprintf(os.Stderr, "vsserved: %s: draining (budget %s; signal again to force)\n", s, *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "vsserved: forcing shutdown; interrupted jobs stay resumable")
		cancel()
	}()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "vsserved: drain:", err)
	}
	if err := flush(); err != nil {
		fmt.Fprintln(os.Stderr, "vsserved: telemetry:", err)
		os.Exit(1)
	}
}
