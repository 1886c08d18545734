package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestSpanNesting checks the hierarchical timing tree: children share the
// root's lane and are time-contained within the parent, which is exactly
// the property chrome://tracing uses to render nesting.
func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	child := root.Start("child")
	grand := child.Start("grand")
	time.Sleep(time.Millisecond)
	grand.End()
	child.End()
	root.End()

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	byName := map[string]TraceEvent{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	r, c, g := byName["root"], byName["child"], byName["grand"]
	if r.Lane != c.Lane || c.Lane != g.Lane {
		t.Errorf("lanes differ: root=%d child=%d grand=%d", r.Lane, c.Lane, g.Lane)
	}
	contains := func(outer, inner TraceEvent) bool {
		const slackUS = 1 // guard against microsecond rounding at the edges
		return inner.StartUS >= outer.StartUS-slackUS &&
			inner.StartUS+inner.DurUS <= outer.StartUS+outer.DurUS+slackUS
	}
	if !contains(r, c) || !contains(c, g) {
		t.Errorf("span containment violated: root=%+v child=%+v grand=%+v", r, c, g)
	}
	if g.DurUS > c.DurUS+1 || c.DurUS > r.DurUS+1 {
		t.Errorf("child longer than parent: %+v %+v %+v", r, c, g)
	}
}

// TestConcurrentRootLanes runs overlapping root spans from many goroutines
// and checks that simultaneously-live roots never share a lane (they would
// render as false nesting). Also the -race gate for the tracer.
func TestConcurrentRootLanes(t *testing.T) {
	tr := NewTracer()
	const n = 16
	var wg, live sync.WaitGroup
	live.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.Start("work")
			child := sp.Start("inner")
			live.Done()
			live.Wait() // every root is open before any ends
			child.End()
			sp.End()
		}()
	}
	wg.Wait()
	if got := tr.Len(); got != 2*n {
		t.Fatalf("got %d events, want %d", got, 2*n)
	}
	// All n roots overlapped in time, so they must occupy n distinct lanes.
	lanes := map[int]bool{}
	for _, e := range tr.Events() {
		if e.Name == "work" {
			lanes[e.Lane] = true
		}
	}
	if len(lanes) != n {
		t.Errorf("%d overlapping roots share %d lanes, want %d", n, len(lanes), n)
	}
}

// TestLaneReuse verifies that sequential roots reuse lane 1 instead of
// growing a new row per span.
func TestLaneReuse(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 5; i++ {
		sp := tr.Start("seq")
		sp.End()
	}
	for _, e := range tr.Events() {
		if e.Lane != 1 {
			t.Fatalf("sequential root landed on lane %d, want 1", e.Lane)
		}
	}
}

// TestChromeTraceJSON checks the export is valid Chrome trace_event JSON
// with the fields the viewers require.
func TestChromeTraceJSON(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("solve")
	sp.Start("assemble").End()
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.PID != 1 || e.TID < 1 || e.Dur < 0 {
			t.Errorf("malformed event %+v", e)
		}
	}
}

// TestNilTracerAndSpans pins the nil-safe no-op contract of the tracer.
func TestNilTracerAndSpans(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	if sp != nil {
		t.Fatal("nil tracer handed out a span")
	}
	sp.Start("y").End() // must not panic
	sp.End()
	if tr.Len() != 0 || tr.Events() != nil {
		t.Error("nil tracer has events")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-tracer trace not valid JSON: %v", err)
	}

	// Global tracing off: StartSpan must return a no-op span.
	DisableTracing()
	if s := StartSpan("x"); s != nil {
		t.Fatal("StartSpan returned a span while tracing disabled")
	}
	tt := EnableTracing()
	defer DisableTracing()
	s := StartSpan("on")
	s.End()
	if tt.Len() != 1 {
		t.Errorf("global tracer recorded %d events, want 1", tt.Len())
	}
}

// TestSpanEndIdempotent: double End must record exactly one event.
func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("once")
	sp.End()
	sp.End()
	if got := tr.Len(); got != 1 {
		t.Fatalf("double End recorded %d events", got)
	}
}
