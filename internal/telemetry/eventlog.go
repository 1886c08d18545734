// Structured event log: the post-mortem half of the telemetry layer. Where
// the metric registry answers "how much / how fast", the event log answers
// "what exactly happened and when" — leveled, machine-parseable JSON-lines
// records emitted from the numerical core at the moments that matter for
// diagnosing a failed or degraded run: PCG breakdowns and non-convergence,
// IC(0) diagonal-shift retries, PDN solve failures,
// thermal-infeasibility rejections and Monte Carlo trial anomalies.
//
// The log follows the same disabled-cost contract as the metric registry:
// it is off by default and call sites guard every emission with
// EventsEnabled(), so a gated-off event costs one atomic load and zero
// allocations (pinned by BenchmarkEventOff). Events go to a file or stderr,
// never stdout, so program outputs are byte-identical with logging on or
// off.
package telemetry

import (
	"context"
	"io"
	"log/slog"
	"sync/atomic"
)

// eventsOn is the one-atomic-load gate consulted by EventsEnabled. The
// logger pointer is stored separately so Event can be called (harmlessly)
// even while the log is being torn down.
var (
	eventsOn    atomic.Bool
	eventLogger atomic.Pointer[slog.Logger]
)

// EnableEventLog installs a JSON-lines event logger writing to w at the
// given minimum level and turns the event gate on. Records carry the
// standard slog fields (time, level, msg) plus the per-event attributes.
// Call sites in the numerical core guard with EventsEnabled(), so enabling
// the log never changes what instrumented code computes.
func EnableEventLog(w io.Writer, level slog.Level) {
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})
	eventLogger.Store(slog.New(h))
	eventsOn.Store(true)
}

// DisableEventLog turns the event gate off and drops the logger.
func DisableEventLog() {
	eventsOn.Store(false)
	eventLogger.Store(nil)
}

// EventsEnabled reports whether the event log is recording. Hot paths call
// this before building any attributes, so a disabled log costs exactly one
// atomic load per potential event site.
func EventsEnabled() bool { return eventsOn.Load() }

// Event emits one structured record. It re-checks the gate (so an unguarded
// call is merely wasted work, never a crash), but the contract is that
// callers guard with EventsEnabled() first — the variadic attribute slice
// and the attribute values themselves must not be constructed on the
// disabled path.
func Event(level slog.Level, msg string, attrs ...slog.Attr) {
	if !eventsOn.Load() {
		return
	}
	l := eventLogger.Load()
	if l == nil {
		return
	}
	l.LogAttrs(context.Background(), level, msg, attrs...)
}
