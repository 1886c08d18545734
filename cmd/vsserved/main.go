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
//	         [-metrics PATH] [-trace PATH] [-manifest PATH] ...
//
// The API listener also serves the observability endpoints (/metrics,
// /healthz, /debug/pprof), so the daemon's server_* and rescache_*
// metrics are always one curl away; each job's convergence record is in
// its stats document (vsctl stats, vsctl health). With -state-dir, job
// state is journaled: completed results survive a restart and jobs
// interrupted mid-run resume from their checkpoints, replaying finished
// sweep points bit-identically instead of recomputing them. A journal
// write that fails leaves the job running, counts in
// server_journal_write_errors_total and logs a stderr line naming the job.
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
//
// Metrics and convergence probes are always on. Each terminal job's
// stats document, frozen into the -state-dir journal, carries its solver
// iterations and condition estimate; `vsreport trend STATE-DIR` compares
// them across jobs and daemon restarts.
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
	tf := telemetry.RegisterFlags()
	flag.Parse()

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
	mgr, err := server.NewManager(server.Config{
		MaxInFlight: *maxInflight,
		QueueDepth:  *queueDepth,
		Cache:       cache,
		StateDir:    *stateDir,
		RetryAfter:  *retryAfter,
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
