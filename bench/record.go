package main

import (
	"fmt"
	"sync"
	"time"
)

// Round is what one round of a workload reports: the timed phase's wall
// time, one Op per timed call, and (traced rounds only) the calls as spans.
// The child process that ran the round fills everything up to Errors; the
// controller fills the process measurements it takes from outside.
type Round struct {
	StartUnixNS int64   `json:"start_unix_ns"` // start of the timed phase
	WallS       float64 `json:"wall_s"`
	// Lanes is how many calls the round keeps in flight at once:
	// pool workers, clients, or 1 for a serial caller.
	Lanes int    `json:"lanes"`
	Ops   []Op   `json:"ops"`
	Spans []Span `json:"spans,omitempty"`
	// Layer holds per-layer values the workload derives from its own calls
	// and results: exact counts and per-call rates.
	Layer map[string]float64 `json:"layer,omitempty"`
	// Errors lists failed calls and failed checks, one line each.
	Errors []string `json:"errors,omitempty"`
	// Digest hashes the round's outputs; rounds of one seed must agree.
	Digest string `json:"digest,omitempty"`
	// Notes are human-readable results worth printing, such as the
	// headline error against the paper.
	Notes []string `json:"notes,omitempty"`

	SetupS float64 `json:"setup_s"`
	CPUS   float64 `json:"cpu_s"`
	RSSMB  float64 `json:"peak_rss_mb"`
}

// Op is one timed call.
type Op struct {
	MS     float64 `json:"ms"`
	Failed bool    `json:"failed,omitempty"`
}

// Span is one timed interval of a traced round. Parent 0 is the round
// itself; Start is relative to the round's start.
type Span struct {
	Name   string `json:"name"`
	Arg    string `json:"arg,omitempty"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// recorder collects the ops, spans and errors of one round. It is safe for
// concurrent use, so pool workers and clients share one.
type recorder struct {
	traced bool
	t0     time.Time

	mu     sync.Mutex
	ops    []Op
	spans  []Span
	errors []string
}

func newRecorder(traced bool) *recorder {
	return &recorder{traced: traced, t0: time.Now()}
}

// op times fn as one call of the round, recorded under span name/arg. An
// error from fn, whether the call failed or a check of its output did,
// marks the op failed. op returns fn's duration.
func (r *recorder) op(name, arg string, fn func() error) time.Duration {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	r.done(name, arg, d, err)
	r.span(name, arg, 0, start, d)
	return d
}

// done records one finished call of duration d.
func (r *recorder) done(name, arg string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, Op{MS: float64(d) / 1e6, Failed: err != nil})
	if err != nil {
		r.errors = append(r.errors, fmt.Sprintf("%s %s: %v", name, arg, err))
	}
}

// span keeps [start, start+d) as a span of a traced round and returns its
// ID, for children to name as their parent. Untraced rounds keep nothing
// and return 0.
func (r *recorder) span(name, arg string, parent int, start time.Time, d time.Duration) int {
	if !r.traced {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		Name:   name,
		Arg:    arg,
		ID:     id,
		Parent: parent,
		Start:  int64(start.Sub(r.t0)),
		Dur:    int64(d),
	})
	return id
}

// round packages what was recorded, with the timed phase ending now.
func (r *recorder) round(lanes int) *Round {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Round{
		StartUnixNS: r.t0.UnixNano(),
		WallS:       time.Since(r.t0).Seconds(),
		Lanes:       lanes,
		Ops:         r.ops,
		Spans:       r.spans,
		Errors:      r.errors,
	}
}
