package telemetry

import (
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// maxTraceEvents caps the trace buffer so a production-scale sweep cannot
// exhaust memory by tracing millions of solves; spans past the cap are
// counted (and reported in the trace metadata) but not recorded.
const maxTraceEvents = 1 << 20

// Tracer records completed spans as a flat event list renderable by
// chrome://tracing and Perfetto (Chrome trace_event "X" complete events;
// parent/child nesting is encoded by time containment on a shared lane).
// A nil *Tracer is a valid no-op, as is every *Span it hands out.
type Tracer struct {
	base time.Time // monotonic origin for timestamps

	mu      sync.Mutex
	events  []traceEvent
	lanes   []bool // lanes[i]: lane i occupied by a live root span
	dropped atomic.Int64
}

type traceEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"` // microseconds since the tracer's origin
	Dur  float64    `json:"dur"`
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	Args *traceArgs `json:"args,omitempty"`
}

// traceArgs carries the W3C trace context on annotated spans, so a span in
// the Chrome trace viewer can be tied back to the request that caused it.
type traceArgs struct {
	TraceID      string `json:"trace_id"`
	SpanID       string `json:"span_id"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
}

// Span is one timed region. End it exactly once; child spans (Start) share
// the root's lane so the viewer nests them.
type Span struct {
	tracer *Tracer
	name   string
	lane   int
	root   bool
	start  time.Time
	ended  atomic.Bool
	tc     TraceContext // this span's own identity (zero when unannotated)
	parent [8]byte      // span ID of the parent span/request, if any
}

// NewTracer returns an empty tracer whose timestamps are relative to now.
func NewTracer() *Tracer { return &Tracer{base: time.Now()} }

// stdTracer is the process tracer behind StartSpan; nil until
// EnableTracing.
var stdTracer atomic.Pointer[Tracer]

// EnableTracing installs a fresh process tracer (replacing any prior one)
// and returns it.
func EnableTracing() *Tracer {
	t := NewTracer()
	stdTracer.Store(t)
	return t
}

// DisableTracing removes the process tracer. Already-started spans still
// record into the tracer they were started on.
func DisableTracing() { stdTracer.Store(nil) }

// StartSpan opens a root span on the process tracer; returns nil (a valid
// no-op span) when tracing is disabled.
func StartSpan(name string) *Span {
	return stdTracer.Load().Start(name)
}

// WriteTrace writes the process tracer's Chrome trace JSON; it writes an
// empty trace when tracing was never enabled.
func WriteTrace(w io.Writer) error { return stdTracer.Load().WriteChromeTrace(w) }

// Start opens a root span. Concurrent root spans get distinct lanes
// (Chrome "tid" rows) so overlapping work renders side by side.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	lane := -1
	for i, used := range t.lanes {
		if !used {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(t.lanes)
		t.lanes = append(t.lanes, false)
	}
	t.lanes[lane] = true
	t.mu.Unlock()
	return &Span{tracer: t, name: name, lane: lane, root: true, start: time.Now()}
}

// StartTrace opens a root span annotated with the trace tc belongs to: the
// span gets a fresh span ID in tc's trace, with tc's span as its parent.
// An invalid tc degrades to a plain unannotated Start.
func (t *Tracer) StartTrace(name string, tc TraceContext) *Span {
	sp := t.Start(name)
	if sp == nil || !tc.Valid() {
		return sp
	}
	sp.parent = tc.SpanID
	sp.tc = tc.Child()
	return sp
}

// Start opens a child span on the same lane as s, inheriting s's trace
// annotation (same trace ID, fresh span ID, s as parent). Nil-safe.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{tracer: s.tracer, name: name, lane: s.lane, start: time.Now()}
	if s.tc.Valid() {
		child.parent = s.tc.SpanID
		child.tc = s.tc.Child()
	}
	return child
}

// End closes the span and records it. Nil-safe and idempotent.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	t := s.tracer
	dur := time.Since(s.start)
	var args *traceArgs
	if s.tc.Valid() {
		args = &traceArgs{
			TraceID:      s.tc.TraceIDString(),
			SpanID:       s.tc.SpanIDString(),
			ParentSpanID: hexSpanID(s.parent),
		}
	}
	t.mu.Lock()
	if len(t.events) < maxTraceEvents {
		t.events = append(t.events, traceEvent{
			Name: s.name,
			Ph:   "X",
			Ts:   float64(s.start.Sub(t.base)) / float64(time.Microsecond),
			Dur:  float64(dur) / float64(time.Microsecond),
			PID:  1,
			TID:  s.lane + 1,
			Args: args,
		})
	} else {
		t.dropped.Add(1)
	}
	if s.root {
		t.lanes[s.lane] = false
	}
	t.mu.Unlock()
}

// Len reports the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events, ordered by start time.
// Exposed for tests and programmatic inspection of the timing tree.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, len(t.events))
	for i, e := range t.events {
		out[i] = TraceEvent{Name: e.Name, Lane: e.TID, StartUS: e.Ts, DurUS: e.Dur}
		if e.Args != nil {
			out[i].TraceID = e.Args.TraceID
			out[i].SpanID = e.Args.SpanID
			out[i].ParentSpanID = e.Args.ParentSpanID
		}
	}
	return out
}

// TraceEvent is the public view of one recorded span. TraceID/SpanID are
// set only on trace-annotated spans.
type TraceEvent struct {
	Name         string
	Lane         int
	StartUS      float64
	DurUS        float64
	TraceID      string
	SpanID       string
	ParentSpanID string
}

// hexSpanID renders an 8-byte span ID as lowercase hex ("" when zero).
func hexSpanID(id [8]byte) string {
	if id == [8]byte{} {
		return ""
	}
	return hex.EncodeToString(id[:])
}

// WriteChromeTrace writes the trace in Chrome trace_event JSON array-of-objects
// form, loadable by chrome://tracing and https://ui.perfetto.dev. A nil
// tracer writes an empty trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{\"traceEvents\":[]}\n")
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := struct {
		TraceEvents []traceEvent `json:"traceEvents"`
		Dropped     int64        `json:"droppedEvents,omitempty"`
	}{t.events, t.dropped.Load()}
	if out.TraceEvents == nil {
		out.TraceEvents = []traceEvent{}
	}
	return json.NewEncoder(w).Encode(out)
}
