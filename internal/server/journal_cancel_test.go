package server

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"voltstack/internal/rescache"
	"voltstack/internal/telemetry"
)

// copySnapshot copies a journal directory tree as it exists right now —
// the moral equivalent of the disk state left behind by a crash at that
// instant.
func copySnapshot(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestJournalCancelCrashRecovery pins crash recovery under concurrent
// cancellation: the daemon dies right after a DELETE was acknowledged but
// before the running job noticed its tripped context. On restart the job
// must adopt as cancelled — it must neither resume (no fresh solver work)
// nor report a second terminal state.
func TestJournalCancelCrashRecovery(t *testing.T) {
	stateDir := t.TempDir()
	started := make(chan struct{})
	release := make(chan struct{})
	cache1, err := rescache.New(rescache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mgr1, err := NewManager(Config{
		Cache:    cache1,
		StateDir: stateDir,
		// The job ignores its context: it stands in for a solve that has
		// not reached a cancellation point yet when the crash hits.
		testJobStart: func(ctx context.Context, j *Job) {
			close(started)
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := mgr1.Submit(sweepRequest(), telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// The DELETE: Cancel persists the intent to the journal before
	// tripping the job's context, so the crash window below is covered.
	if _, ok := mgr1.Cancel(j.ID()); !ok {
		t.Fatal("cancel of a running job refused")
	}

	// Crash now — snapshot the journal exactly as it is mid-cancellation,
	// with the job still nominally running.
	snap := t.TempDir()
	copySnapshot(t, stateDir, snap)

	// Restart on the snapshot with an empty cache. The adopted job must be
	// terminal-cancelled immediately: not queued, not resumed, no work.
	evals0 := cEvalPoints.Value()
	cache2, err := rescache.New(rescache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mgr2, err := NewManager(Config{Cache: cache2, StateDir: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	j2, ok := mgr2.Get(j.ID())
	if !ok {
		t.Fatal("cancelled job missing after restart")
	}
	select {
	case <-j2.Done():
	default:
		t.Fatal("adopted cancelled job is not terminal")
	}
	st := j2.Status()
	if st.State != StateCancelled {
		t.Fatalf("adopted state = %s, want cancelled", st.State)
	}
	if st.Resumed {
		t.Error("cancelled job was resumed")
	}
	if _, err := mgr2.Result(j2); err == nil {
		t.Error("cancelled job served a result")
	}
	if fresh := cEvalPoints.Value() - evals0; fresh != 0 {
		t.Errorf("restart evaluated %d points of a cancelled job, want 0", fresh)
	}

	// A second restart of the same journal must not flip the story: the
	// terminal state reported once stays the state reported always.
	mgr2.Close()
	mgr3, err := NewManager(Config{Cache: cache2, StateDir: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr3.Close()
	j3, ok := mgr3.Get(j.ID())
	if !ok {
		t.Fatal("cancelled job missing after second restart")
	}
	if st := j3.Status(); st.State != StateCancelled {
		t.Errorf("second restart state = %s, want cancelled", st.State)
	}

	// Let the first manager's stuck job go so Close can join it.
	close(release)
	mgr1.Close()
}
