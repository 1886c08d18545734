package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The journal persists job state under <stateDir>/jobs:
//
//	<id>.json        job metadata (request, state, key, timestamps)
//	<id>.ckpt.jsonl  one line per completed sweep point (index + raw metrics)
//	<id>.result      the final result bytes of a done job
//	<id>.stats.json  the frozen final stats document of a terminal job
//
// Metadata and results are written with temp+rename so a crash never
// leaves a torn file; the checkpoint is append-only JSONL, and a torn
// final line (the crash window) is dropped on load — that point is simply
// re-evaluated. On restart, jobs whose persisted state is non-terminal
// are re-enqueued in their original submission order. ReadJournal reads
// the terminal jobs back without a Manager.

type persistedJob struct {
	// JobStatus is the job's status as Job.Status reports it; a job
	// adopted after a restart reports the same, except ResultBytes, which
	// reads 0 until the result is loaded.
	JobStatus
	Seq     int64      `json:"seq"` // submission order, preserved across resume
	Request JobRequest `json:"request"`
	// Cancelled records the user's cancel intent independently of State:
	// it is persisted before the runner's context is tripped, so a crash
	// inside the cancellation window cannot resurrect the job on restart.
	Cancelled bool `json:"cancelled,omitempty"`
	// Traceparent is the job's trace context in W3C wire form, so a
	// resumed job keeps its original trace ID across restarts.
	Traceparent string `json:"traceparent,omitempty"`
}

type journal struct {
	dir string // <stateDir>/jobs
}

func newJournal(stateDir string) (*journal, error) {
	dir := filepath.Join(stateDir, "jobs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: state dir: %v", err)
	}
	return &journal{dir: dir}, nil
}

func (j *journal) metaPath(id string) string   { return filepath.Join(j.dir, id+".json") }
func (j *journal) ckptPath(id string) string   { return filepath.Join(j.dir, id+".ckpt.jsonl") }
func (j *journal) resultPath(id string) string { return filepath.Join(j.dir, id+".result") }
func (j *journal) statsPath(id string) string  { return filepath.Join(j.dir, id+".stats.json") }

// atomicWrite lands data at path via a temp file and rename, so readers
// (and the post-crash loader) never observe a partial write.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func (j *journal) saveMeta(p persistedJob) error {
	b, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return atomicWrite(j.metaPath(p.ID), b)
}

// load returns every persisted job, sorted by submission order.
func (j *journal) load() ([]persistedJob, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, err
	}
	var out []persistedJob
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".tmp-") ||
			strings.HasSuffix(name, ".stats.json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(j.dir, name))
		if err != nil {
			return nil, err
		}
		var p persistedJob
		if err := json.Unmarshal(b, &p); err != nil {
			return nil, fmt.Errorf("server: journal %s: %v", name, err)
		}
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Seq != out[b].Seq {
			return out[a].Seq < out[b].Seq
		}
		return out[a].ID < out[b].ID
	})
	return out, nil
}

// openCheckpoint opens the append-only checkpoint stream of a job.
func (j *journal) openCheckpoint(id string) (*os.File, error) {
	return os.OpenFile(j.ckptPath(id), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
}

// ckptLine is one completed sweep point: Designs() index plus the point's
// raw (pre-normalization) metrics in canonical JSON.
type ckptLine struct {
	I int             `json:"i"`
	M json.RawMessage `json:"m"`
}

// loadCheckpoint returns the checkpointed points of a job by design
// index. A torn trailing line (crash mid-append) is silently dropped.
func (j *journal) loadCheckpoint(id string) (map[int]json.RawMessage, error) {
	f, err := os.Open(j.ckptPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	out := map[int]json.RawMessage{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var line ckptLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			break // torn tail: drop it and everything after
		}
		out[line.I] = line.M
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func (j *journal) saveResult(id string, data []byte) error {
	return atomicWrite(j.resultPath(id), data)
}

func (j *journal) loadResult(id string) ([]byte, error) {
	return os.ReadFile(j.resultPath(id))
}

func (j *journal) saveStats(id string, data []byte) error {
	return atomicWrite(j.statsPath(id), data)
}

func (j *journal) loadStats(id string) ([]byte, error) {
	return os.ReadFile(j.statsPath(id))
}

// JournaledJob is one terminal job read back from a state directory.
type JournaledJob struct {
	ID string
	// Request is the request's identity: normalized, with Workers
	// cleared, so equal requests mean equal work across builds.
	Request    JobRequest
	FinishedAt time.Time
	// Stats is the job's frozen stats document.
	Stats JobStats
}

// ReadJournal returns each terminal job journaled under stateDir that has
// a frozen stats document, ordered by finished_at. Queued and running
// jobs, and terminal jobs finished by a build that froze no stats, are
// skipped. It only reads, so it is safe beside a running daemon.
func ReadJournal(stateDir string) ([]JournaledJob, error) {
	jn := &journal{dir: filepath.Join(stateDir, "jobs")}
	persisted, err := jn.load()
	if err != nil {
		return nil, fmt.Errorf("server: read journal: %w", err)
	}
	var out []JournaledJob
	for _, p := range persisted {
		if !p.State.Terminal() {
			continue
		}
		b, err := jn.loadStats(p.ID)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("server: read journal: %w", err)
		}
		jj := JournaledJob{ID: p.ID, Request: p.Request.identity(), FinishedAt: parseRFC3339(p.FinishedAt)}
		if err := json.Unmarshal(b, &jj.Stats); err != nil {
			return nil, fmt.Errorf("server: journal %s stats: %w", p.ID, err)
		}
		out = append(out, jj)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].FinishedAt.Before(out[b].FinishedAt) })
	return out, nil
}
