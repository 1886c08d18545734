package server

import (
	"bytes"
	"encoding/json"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"voltstack/internal/rescache"
	"voltstack/internal/telemetry"
)

// TestReadJournal pins the reader behind vsreport trend: it returns the
// terminal jobs that have a frozen stats document, ordered by finished_at
// rather than submission order, each with its stats document and its
// request's identity. Queued, running and stats-less jobs are skipped.
func TestReadJournal(t *testing.T) {
	dir := t.TempDir()
	jn, err := newJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := sweepRequest()
	req.Normalize()
	write := func(id string, seq int64, state JobState, finished string, withStats bool) {
		t.Helper()
		p := persistedJob{JobStatus: JobStatus{ID: id, State: state, FinishedAt: finished}, Seq: seq, Request: req}
		if err := jn.saveMeta(p); err != nil {
			t.Fatal(err)
		}
		if !withStats {
			return
		}
		doc := JobStats{ID: id, State: state, Final: true, Registry: telemetry.RegistrySnapshot{
			Counters: map[string]int64{"job_solver_iterations_total": 100 * seq},
		}}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := jn.saveStats(id, b); err != nil {
			t.Fatal(err)
		}
	}
	write("j1", 1, StateDone, "2026-01-01T00:00:03Z", true)
	write("j2", 2, StateFailed, "2026-01-01T00:00:01Z", true)
	write("j3", 3, StateCancelled, "2026-01-01T00:00:02Z", false)
	write("j4", 4, StateRunning, "", true)
	write("j5", 5, StateQueued, "", false)

	got, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, j := range got {
		ids = append(ids, j.ID)
	}
	if want := []string{"j2", "j1"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("jobs = %v, want %v", ids, want)
	}
	for i, seq := range []int64{2, 1} {
		j := got[i]
		if n := j.Stats.Registry.Counters["job_solver_iterations_total"]; n != 100*seq || !j.Stats.Final {
			t.Errorf("%s: stats iterations %d final %v, want %d true", j.ID, n, j.Stats.Final, 100*seq)
		}
		if !reflect.DeepEqual(j.Request, req.identity()) || j.Request.Workers != 0 {
			t.Errorf("%s: request %+v, want the identity %+v", j.ID, j.Request, req.identity())
		}
	}
	if got[0].FinishedAt.After(got[1].FinishedAt) || got[1].FinishedAt.IsZero() {
		t.Errorf("finished_at out of order: %v, %v", got[0].FinishedAt, got[1].FinishedAt)
	}

	if _, err := ReadJournal(t.TempDir()); err == nil {
		t.Error("a directory with no journal read without error")
	}
}

// TestJournalWriteFailuresReported pins that a journal the daemon cannot
// write is visible: the job still finishes, and every failed write bumps
// server_journal_write_errors_total and logs a line naming the job and
// the file it lost.
func TestJournalWriteFailuresReported(t *testing.T) {
	stateDir := t.TempDir()
	cache, err := rescache.New(rescache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Config{Cache: cache, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	// Swap the jobs directory for a regular file: every journal write
	// then fails with ENOTDIR, even for root.
	jobs := filepath.Join(stateDir, "jobs")
	if err := os.RemoveAll(jobs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jobs, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(prev) })
	before := mJournalWriteErrors.Value()
	j, err := mgr.Submit(JobRequest{Kind: KindExperiment, Experiments: []string{"table1"}, Coarse: true}, telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job never terminated")
	}

	if st := j.Status(); st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	if n := mJournalWriteErrors.Value() - before; n < 3 {
		t.Errorf("server_journal_write_errors_total grew by %d, want >= 3", n)
	}
	logged := buf.String()
	for _, what := range []string{"metadata", "result", "stats"} {
		if want := "job " + j.ID() + ": journal " + what + " write failed"; !strings.Contains(logged, want) {
			t.Errorf("log lacks %q:\n%s", want, logged)
		}
	}
}
