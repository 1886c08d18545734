package server

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"voltstack/internal/telemetry"
)

// JobStats is the per-job resource-attribution document served by
// GET /v1/jobs/{id}/stats: wall/CPU time and allocations charged to the
// job, queue wait, the job-scoped instrument registry (PDN solves, solver
// iterations, point cache hits, …) and the job's convergence record.
//
// While the job runs the document is a live snapshot (Final=false); once
// the job reaches a terminal state the document is frozen, journaled next
// to the job's result, and served byte-identically from then on — across
// daemon restarts too.
type JobStats struct {
	ID      string   `json:"id"`
	State   JobState `json:"state"`
	Kind    string   `json:"kind"`
	TraceID string   `json:"trace_id,omitempty"`
	// Final marks the frozen terminal document; false means a live
	// snapshot of a queued or running job.
	Final    bool `json:"final"`
	CacheHit bool `json:"cache_hit,omitempty"`
	Resumed  bool `json:"resumed,omitempty"`

	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	WallSeconds      float64 `json:"wall_seconds"`
	// CPUSeconds is the process CPU-time delta over the job's run. With
	// MaxInFlight=1 it is exactly the job's CPU cost; with concurrent
	// jobs it over-attributes shared process time to each.
	CPUSeconds float64 `json:"cpu_seconds"`
	// AllocBytes is the process heap-allocation delta over the job's run,
	// with the same concurrency caveat as CPUSeconds.
	AllocBytes uint64 `json:"alloc_bytes"`

	Registry telemetry.RegistrySnapshot `json:"registry"`
	// Convergence is the whole report of the job's hardest probed solve
	// (a failed one first, then most iterations, then largest condition
	// estimate, then largest final residual); absent when no PCG solve was
	// attributed to the job.
	Convergence *telemetry.ConvergenceReport `json:"convergence,omitempty"`
}

// statsDoc assembles the job's stats document. Callers hold no lock; the
// job's own mutex is taken for the field snapshot.
func (m *Manager) statsDoc(j *Job, final bool) JobStats {
	j.mu.Lock()
	doc := JobStats{
		ID:       j.id,
		State:    j.state,
		Kind:     j.req.Kind,
		TraceID:  j.trace.TraceIDString(),
		Final:    final,
		CacheHit: j.cacheHit,
		Resumed:  j.resumed,
	}
	started, created, finished := j.started, j.created, j.finished
	cpu0, alloc0 := j.cpu0, j.alloc0
	scope := j.scope
	j.mu.Unlock()

	if !started.IsZero() && !created.IsZero() {
		doc.QueueWaitSeconds = started.Sub(created).Seconds()
	}
	switch {
	case started.IsZero():
		// Still queued (or cancelled before start): no run attribution.
	case finished.IsZero():
		doc.WallSeconds = time.Since(started).Seconds()
		doc.CPUSeconds = cpuSince(cpu0)
		doc.AllocBytes = allocSince(alloc0)
	default:
		doc.WallSeconds = finished.Sub(started).Seconds()
		doc.CPUSeconds = cpuSince(cpu0)
		doc.AllocBytes = allocSince(alloc0)
	}
	doc.Registry = scope.Registry().Snapshot()
	doc.Convergence = scope.Health().Load()
	return doc
}

func cpuSince(cpu0 float64) float64 {
	if cpu0 <= 0 {
		return 0
	}
	if d := telemetry.ProcessCPUSeconds() - cpu0; d > 0 {
		return d
	}
	return 0
}

func allocSince(alloc0 uint64) uint64 {
	if alloc0 == 0 {
		return 0
	}
	if a := totalAlloc(); a > alloc0 {
		return a - alloc0
	}
	return 0
}

// totalAlloc returns the process's cumulative heap allocation counter.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// finalizeStats freezes the job's stats document at a terminal
// transition and journals it so the exact bytes survive a restart.
func (m *Manager) finalizeStats(j *Job) {
	b, err := json.MarshalIndent(m.statsDoc(j, true), "", "  ")
	if err != nil {
		return
	}
	b = append(b, '\n')
	j.mu.Lock()
	j.stats = b
	j.mu.Unlock()
	if m.journal != nil {
		if werr := m.journal.saveStats(j.id, b); werr != nil {
			journalWriteFailed(j.id, "stats", werr)
		}
	}
}

// Stats returns the job's stats document: the frozen journal bytes for a
// terminal job (byte-identical across restarts), or a live snapshot.
func (m *Manager) Stats(j *Job) ([]byte, error) {
	j.mu.Lock()
	terminal, stats := j.state.Terminal(), j.stats
	j.mu.Unlock()
	if terminal {
		// A job finishing in this process turns terminal before its stats
		// freeze and closes Done after: wait, so the read below cannot
		// freeze a second, different document.
		<-j.done
		j.mu.Lock()
		stats = j.stats
		j.mu.Unlock()
		if stats != nil {
			return stats, nil
		}
		if m.journal != nil {
			if b, err := m.journal.loadStats(j.id); err == nil {
				j.mu.Lock()
				j.stats = b
				j.mu.Unlock()
				return b, nil
			}
		}
		// Terminal but never finalized (a job that completed under an
		// older build): freeze a document now so repeat reads agree.
		m.finalizeStats(j)
		j.mu.Lock()
		stats = j.stats
		j.mu.Unlock()
		if stats == nil {
			return nil, fmt.Errorf("server: job %s stats unavailable", j.id)
		}
		return stats, nil
	}
	doc := m.statsDoc(j, false)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
