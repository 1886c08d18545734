package telemetry

import (
	"context"
	"sort"
	"sync"
)

// Scope is per-request (per-job) telemetry: its own enabled Registry layered
// over the process registry — every instrument write lands in the job scope
// AND in a same-named process-global aggregate — plus a bounded exemplar
// store linking extreme observations back to (trace ID, span ID) evidence.
//
// A nil *Scope is a valid no-op receiver everywhere, so instrumented code
// can call ScopeFrom(ctx) once and use the result unconditionally.
type Scope struct {
	tc  TraceContext
	reg *Registry
	ex  *ExemplarStore
}

// scopeExemplarCap bounds the per-metric exemplar list in one job scope.
const scopeExemplarCap = 8

// NewScope returns a scope recording under tc, layered over the process
// registry (scope writes propagate to same-named process instruments,
// which record only while process telemetry is enabled).
func NewScope(tc TraceContext) *Scope {
	return &Scope{tc: tc, reg: NewScopedRegistry(std), ex: NewExemplarStore(scopeExemplarCap)}
}

// Trace returns the scope's trace context (zero for nil).
func (s *Scope) Trace() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return s.tc
}

// Registry returns the scope's registry (nil for a nil scope — still a
// valid no-op registry receiver).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Counter returns the scope's named counter (nil-safe).
func (s *Scope) Counter(name string) *Counter { return s.Registry().Counter(name) }

// Gauge returns the scope's named gauge (nil-safe).
func (s *Scope) Gauge(name string) *Gauge { return s.Registry().Gauge(name) }

// Histogram returns the scope's named histogram (nil-safe).
func (s *Scope) Histogram(name string) *Histogram { return s.Registry().Histogram(name) }

// Exemplars returns the scope's exemplar store (nil for a nil scope).
func (s *Scope) Exemplars() *ExemplarStore {
	if s == nil {
		return nil
	}
	return s.ex
}

// RecordExemplar stores e in the scope (top-K by value per metric). Empty
// trace fields are filled from the scope's own trace context. No-op on nil.
func (s *Scope) RecordExemplar(e Exemplar) {
	if s == nil {
		return
	}
	if e.TraceID == "" {
		e.TraceID = s.tc.TraceIDString()
		e.SpanID = s.tc.SpanIDString()
	}
	s.ex.Record(e)
}

type scopeCtxKey struct{}

// WithScope returns a context carrying s.
func WithScope(ctx context.Context, s *Scope) context.Context {
	return context.WithValue(ctx, scopeCtxKey{}, s)
}

// ScopeFrom returns the scope carried by ctx, or nil. The nil result is a
// valid no-op scope.
func ScopeFrom(ctx context.Context) *Scope {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(scopeCtxKey{}).(*Scope)
	return s
}

// Exemplar links one extreme observation (a slow solve, a long queue wait)
// to the exact trace span that produced it, with enough solver evidence
// attached to diagnose it without re-running: iteration count, final
// residual, and — for an iterative solve — its residual timeline, copied
// with its dropped count from that solve's ConvergenceReport.
type Exemplar struct {
	Metric           string    `json:"metric"`
	Value            float64   `json:"value"`
	TraceID          string    `json:"trace_id,omitempty"`
	SpanID           string    `json:"span_id,omitempty"`
	Iterations       int       `json:"iterations,omitempty"`
	Residual         float64   `json:"residual,omitempty"`
	Residuals        []float64 `json:"residuals,omitempty"`
	ResidualsDropped int       `json:"residuals_dropped,omitempty"`
}

// ResidualIteration returns the solver step of Residuals[i]. The head of
// the ring holds steps 0…ResidualHeadLen−1; past it, the ResidualsDropped
// elided steps shift the numbering.
func (e Exemplar) ResidualIteration(i int) int {
	if i < ResidualHeadLen {
		return i
	}
	return i + e.ResidualsDropped
}

// ExemplarStore keeps, per metric, the top-K exemplars by Value. Safe for
// concurrent use; a nil store is a valid no-op.
type ExemplarStore struct {
	mu  sync.Mutex
	cap int
	m   map[string][]Exemplar // sorted descending by Value, len <= cap
}

// NewExemplarStore returns a store keeping up to capPerMetric exemplars
// per metric name.
func NewExemplarStore(capPerMetric int) *ExemplarStore {
	if capPerMetric < 1 {
		capPerMetric = 1
	}
	return &ExemplarStore{cap: capPerMetric, m: map[string][]Exemplar{}}
}

// Record inserts e, evicting the smallest-valued exemplar of its metric
// when the per-metric list is full. No-op on nil.
func (s *ExemplarStore) Record(e Exemplar) {
	if s == nil || e.Metric == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.m[e.Metric]
	i := sort.Search(len(list), func(i int) bool { return list[i].Value < e.Value })
	if i >= s.cap {
		return
	}
	list = append(list, Exemplar{})
	copy(list[i+1:], list[i:])
	list[i] = e
	if len(list) > s.cap {
		list = list[:s.cap]
	}
	s.m[e.Metric] = list
}

// Snapshot returns all exemplars, ordered by metric name then descending
// value — a deterministic order for dumps.
func (s *ExemplarStore) Snapshot() []Exemplar {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := sortedNames(s.m)
	var out []Exemplar
	for _, n := range names {
		out = append(out, s.m[n]...)
	}
	return out
}
