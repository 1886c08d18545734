// Package telemetry is the toolchain's observability layer: a process-wide
// metrics registry (counters, gauges, log-bucketed histograms), a span
// tracer that records hierarchical timing trees exportable as Chrome
// trace_event JSON, and a rate-limited stderr progress reporter for long
// sweeps and Monte Carlo runs.
//
// The metrics registry always records: instruments are created against
// the process registry (at package init, or when the subsystem they
// describe is built) and every write is one atomic update. Tracing and
// progress are off by default (EnableTracing / EnableProgress, or the CLI
// helper in cli.go). Every handle is nil-safe, and no instrument, span or
// progress line changes what the instrumented code computes, so program
// outputs are byte-identical with or without any observability flag.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 buckets per histogram. Bucket i
// covers (2^(i-1), 2^i] for i >= 1; bucket 0 covers [0, 1]. With 64
// buckets the upper bound is 2^63, far beyond any observed count or
// duration in seconds.
const histBuckets = 64

// Registry holds named instruments. The zero value is not usable; call
// NewRegistry or use the package-level process registry. A nil *Registry
// is a valid no-op receiver for every method.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// std is the process registry behind the package-level constructors. It
// exists from init, so instruments can bind to it at package load.
var std = NewRegistry()

// Default returns the process registry (for dumping; it is never nil).
func Default() *Registry { return std }

// NewCounter returns the named counter of the process registry, creating
// it if needed. Safe to call from package init.
func NewCounter(name string) *Counter { return std.Counter(name) }

// NewGauge returns the named gauge of the process registry.
func NewGauge(name string) *Gauge { return std.Gauge(name) }

// NewHistogram returns the named histogram of the process registry.
func NewHistogram(name string) *Histogram { return std.Histogram(name) }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		h.minBits.Store(math.Float64bits(math.Inf(1)))
		h.maxBits.Store(math.Float64bits(math.Inf(-1)))
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every instrument (the instruments themselves survive, so
// handles bound at init stay valid). Intended for tests.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.count.Store(0)
		h.sumBits.Store(0)
		h.minBits.Store(math.Float64bits(math.Inf(1)))
		h.maxBits.Store(math.Float64bits(math.Inf(-1)))
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
}

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that holds the most recently set value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds delta to the gauge (CAS loop, safe for concurrent
// up/down counting — a Set(Value()+1) from two goroutines can lose an
// update and leave the gauge stale forever). No-op on a nil gauge.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Value returns the last set value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a log2-bucketed distribution of non-negative float64
// observations with exact count/sum/min/max side stats. All methods are
// safe for concurrent use and lock-free.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

// bucketIndex maps a non-negative observation to its log2 bucket.
func bucketIndex(v float64) int {
	if v <= 1 {
		return 0
	}
	// Frexp: v = f × 2^e with f in [0.5, 1), so 2^(e-1) <= v < 2^e and
	// the covering bucket upper bound is 2^e (or 2^(e-1) when f == 0.5).
	f, e := math.Frexp(v)
	if f == 0.5 {
		e--
	}
	if e < 0 {
		e = 0
	}
	if e >= histBuckets {
		e = histBuckets - 1
	}
	return e
}

// Observe records one sample. Negative or NaN samples are clamped to 0 and
// +Inf to MaxFloat64, so the side stats stay finite and JSON-encodable.
// No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	} else if math.IsInf(v, 1) {
		v = math.MaxFloat64
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Since observes the elapsed seconds from t0.
func (h *Histogram) Since(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// HistogramBucket is one populated log2 bucket of a histogram snapshot.
type HistogramBucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of one histogram. An empty
// histogram snapshots as all zeros (never the ±Inf min/max sentinels), and
// every field is sanitized to a finite value, so snapshots are always
// JSON-encodable — including per-job scoped dumps of untouched instruments.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	Mean    float64           `json:"mean"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// finite clamps NaN and ±Inf to 0 / ±MaxFloat64 so the value survives
// encoding/json (which rejects non-finite floats).
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

func (h *Histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = finite(math.Float64frombits(h.sumBits.Load()))
	if s.Count > 0 {
		s.Min = finite(math.Float64frombits(h.minBits.Load()))
		s.Max = finite(math.Float64frombits(h.maxBits.Load()))
		s.Mean = finite(s.Sum / float64(s.Count))
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{math.Ldexp(1, i), n})
		}
	}
	return s
}

// RegistrySnapshot is a point-in-time copy of every instrument in a
// registry, with finite (JSON-safe) float values. It is the JSON shape of
// WriteJSON and the registry portion of per-job stats documents.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every instrument. Safe on a nil registry (empty maps).
func (r *Registry) Snapshot() RegistrySnapshot {
	out := RegistrySnapshot{map[string]int64{}, map[string]float64{}, map[string]HistogramSnapshot{}}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		out.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		out.Gauges[n] = finite(g.Value())
	}
	for n, h := range r.hists {
		out.Histograms[n] = h.snapshot()
	}
	return out
}

// sortedNames returns the sorted keys of a map, for stable dumps.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSON dumps every instrument as a single JSON object with stable
// (sorted) key order.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus dumps every instrument in the Prometheus text exposition
// format (counters as `_total`-style counters, histograms as cumulative
// `_bucket{le=...}` series plus `_sum` and `_count`).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range sortedNames(r.counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, r.counters[n].Value()); err != nil {
			return err
		}
	}
	for _, n := range sortedNames(r.gauges) {
		v := finite(r.gauges[n].Value())
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, v); err != nil {
			return err
		}
	}
	for _, n := range sortedNames(r.hists) {
		h := r.hists[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		var cum int64
		for i := range h.buckets {
			c := h.buckets[i].Load()
			if c == 0 {
				continue
			}
			cum += c
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", n, math.Ldexp(1, i), cum); err != nil {
				return err
			}
		}
		count := h.count.Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", n, finite(math.Float64frombits(h.sumBits.Load())), n, count); err != nil {
			return err
		}
	}
	return nil
}
