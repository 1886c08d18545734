package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"voltstack/internal/telemetry"
)

// TestOccupancyGaugesDrainToZero is the stale-gauge regression test for
// the admission instruments: after every submitted job reaches a terminal
// state, server_jobs_running and server_queue_depth must both read zero.
// Concurrent jobs exercise the read-modify-write hazard that the atomic
// Gauge.Add exists to close — with MaxInFlight > 1, two jobs finishing
// together under the old Set(Value()-1) could leave the gauge stuck above
// zero forever.
func TestOccupancyGaugesDrainToZero(t *testing.T) {
	mgr, err := NewManager(Config{
		MaxInFlight: 3,
		QueueDepth:  16,
		testJobStart: func(ctx context.Context, j *Job) {
			time.Sleep(time.Millisecond)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	const jobs = 12
	done := make([]<-chan struct{}, 0, jobs)
	for i := 0; i < jobs; i++ {
		// Distinct seeds defeat the result cache so every job truly runs.
		j, err := mgr.Submit(JobRequest{Kind: KindExperiment, Experiments: []string{"table1"}, Seed: int64(100 + i)}, telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, j.Done())
	}
	for _, ch := range done {
		select {
		case <-ch:
		case <-time.After(30 * time.Second):
			t.Fatal("job never terminated")
		}
	}
	// The decrement is deferred past the Done close; give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		running, depth := mRunning.Value(), mQueueDepth.Value()
		if running == 0 && depth == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges did not drain: server_jobs_running=%v server_queue_depth=%v", running, depth)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGaugeAddAtomicity pins the telemetry primitive the occupancy
// gauges rely on: concurrent Add calls must never lose an update.
func TestGaugeAddAtomicity(t *testing.T) {
	g := telemetry.NewGauge(fmt.Sprintf("test_gauge_add_%d", time.Now().UnixNano()))
	const workers, per = 8, 1000
	doneCh := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < per; i++ {
				g.Add(1)
				g.Add(-1)
				g.Add(1)
			}
			doneCh <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-doneCh
	}
	if v := g.Value(); v != workers*per {
		t.Fatalf("gauge = %v after %d net increments, want %d", v, workers*per, workers*per)
	}
}
