package telemetry

import "context"

// Scope is per-request (per-job) telemetry: the job's own Registry, whose
// writes stay in the job, plus the job's trace context and its convergence
// record: the report of its hardest probed solve.
//
// A nil *Scope is a valid no-op receiver everywhere, so instrumented code
// can call ScopeFrom(ctx) once and use the result unconditionally.
type Scope struct {
	tc     TraceContext
	reg    *Registry
	health HardestReport
}

// NewScope returns a scope recording under tc into a registry of its own.
func NewScope(tc TraceContext) *Scope {
	return &Scope{tc: tc, reg: NewRegistry()}
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

// Health returns the scope's convergence record (nil for a nil scope —
// still a valid holder that ignores offers and loads nil).
func (s *Scope) Health() *HardestReport {
	if s == nil {
		return nil
	}
	return &s.health
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
