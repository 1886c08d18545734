package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this is the data-race gate for the
// lock-free instrument paths.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				g.Set(float64(w))
				h.Observe(float64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	// Per-worker sum of 0..999 is 499500.
	if got, want := h.Sum(), float64(workers)*499500; got != want {
		t.Errorf("histogram sum = %g, want %g", got, want)
	}
	snap := h.snapshot()
	if snap.Min != 0 || snap.Max != perWorker-1 {
		t.Errorf("min/max = %g/%g, want 0/%d", snap.Min, snap.Max, perWorker-1)
	}
	var bucketTotal int64
	for _, b := range snap.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != workers*perWorker {
		t.Errorf("bucket total = %d, want %d", bucketTotal, workers*perWorker)
	}
}

// TestNilHandlesNoOp verifies that nil handles are safe everywhere.
func TestNilHandlesNoOp(t *testing.T) {
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	var nr *Registry
	nc.Add(1)
	ng.Set(1)
	nh.Observe(1)
	nh.Since(time.Now())
	nr.Reset()
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 || nh.Sum() != 0 || nh.Mean() != 0 {
		t.Error("nil instrument returned nonzero")
	}
	if nr.Counter("x") != nil || nr.Gauge("x") != nil || nr.Histogram("x") != nil {
		t.Error("nil registry handed out instruments")
	}
	var buf bytes.Buffer
	if err := nr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := nr.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, {1.5, 1}, {2, 1}, {2.1, 2}, {4, 2}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	if got := bucketIndex(math.MaxFloat64); got != histBuckets-1 {
		t.Errorf("overflow bucket = %d, want %d", got, histBuckets-1)
	}
}

// TestDumpGolden pins the exact dump formats: the Prometheus text format
// (cumulative buckets, _sum/_count) and the JSON layout with sorted keys.
func TestDumpGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta_total").Add(3)
	r.Counter("alpha_total").Add(7)
	r.Gauge("residual").Set(0.5)
	h := r.Histogram("iters")
	h.Observe(1)
	h.Observe(3)
	h.Observe(300)

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	wantProm := `# TYPE alpha_total counter
alpha_total 7
# TYPE zeta_total counter
zeta_total 3
# TYPE residual gauge
residual 0.5
# TYPE iters histogram
iters_bucket{le="1"} 1
iters_bucket{le="4"} 2
iters_bucket{le="512"} 3
iters_bucket{le="+Inf"} 3
iters_sum 304
iters_count 3
`
	if prom.String() != wantProm {
		t.Errorf("prometheus dump:\n--- got ---\n%s--- want ---\n%s", prom.String(), wantProm)
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{
  "counters": {
    "alpha_total": 7,
    "zeta_total": 3
  },
  "gauges": {
    "residual": 0.5
  },
  "histograms": {
    "iters": {
      "count": 3,
      "sum": 304,
      "min": 1,
      "max": 300,
      "mean": 101.33333333333333,
      "buckets": [
        {
          "le": 1,
          "count": 1
        },
        {
          "le": 4,
          "count": 1
        },
        {
          "le": 512,
          "count": 1
        }
      ]
    }
  }
}
`
	if js.String() != wantJSON {
		t.Errorf("json dump:\n--- got ---\n%s--- want ---\n%s", js.String(), wantJSON)
	}
	// The JSON dump must stay machine-readable.
	var parsed map[string]any
	if err := json.Unmarshal(js.Bytes(), &parsed); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	c.Add(2)
	h.Observe(9)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("Reset left values behind")
	}
	// Handles stay bound after Reset.
	c.Add(1)
	if c.Value() != 1 {
		t.Error("handle dead after Reset")
	}
	if snap := h.snapshot(); len(snap.Buckets) != 0 {
		t.Error("Reset left buckets behind")
	}
}

func TestProgressSilentWhenDisabled(t *testing.T) {
	DisableProgress()
	if p := NewProgress("x", 10); p != nil {
		t.Fatal("NewProgress returned non-nil while disabled")
	}
	var p *Progress
	p.Add(1)
	p.Finish() // must not panic
}

func TestProgressPrints(t *testing.T) {
	var buf bytes.Buffer
	SetProgressWriter(&buf)
	defer SetProgressWriter(nil)
	EnableProgress(time.Nanosecond)
	defer DisableProgress()
	p := NewProgress("sweep", 4)
	time.Sleep(2 * time.Millisecond)
	p.Add(1)
	p.Add(1)
	p.Finish()
	out := buf.String()
	if !strings.Contains(out, "sweep:") || !strings.Contains(out, "/4") {
		t.Errorf("progress output missing fields: %q", out)
	}
}

// TestEmptyHistogramSnapshotFinite pins the satellite fix for NaN leakage:
// a created-but-never-observed histogram must snapshot and serialize as
// all-zeros — 0/0 mean must never escape as NaN, which json.Marshal would
// reject and Prometheus scrapes would mis-parse.
func TestEmptyHistogramSnapshotFinite(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty_seconds")
	snap := r.Snapshot()
	h, ok := snap.Histograms["empty_seconds"]
	if !ok {
		t.Fatal("empty histogram missing from snapshot")
	}
	if h.Count != 0 || h.Sum != 0 || h.Mean != 0 || h.Min != 0 || h.Max != 0 {
		t.Fatalf("empty histogram snapshot not all-zero: %+v", h)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON on empty histogram: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON emitted invalid JSON: %v\n%s", err, buf.String())
	}
}

// TestNonFiniteValuesSanitized checks that NaN gauges and +Inf
// observations cannot poison the JSON or Prometheus renderings.
func TestNonFiniteValuesSanitized(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g_nan").Set(math.NaN())
	r.Gauge("g_inf").Set(math.Inf(1))
	h := r.Histogram("h")
	h.Observe(math.Inf(1)) // clamped, not poisonous
	h.Observe(2)

	snap := r.Snapshot()
	if v := snap.Gauges["g_nan"]; v != 0 {
		t.Errorf("NaN gauge snapshot = %g, want 0", v)
	}
	if v := snap.Gauges["g_inf"]; math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("Inf gauge snapshot not finite: %g", v)
	}
	hs := snap.Histograms["h"]
	if hs.Count != 2 || math.IsInf(hs.Sum, 0) || math.IsNaN(hs.Sum) || math.IsNaN(hs.Mean) {
		t.Errorf("histogram snapshot not finite: %+v", hs)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON with non-finite inputs: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("WriteJSON emitted invalid JSON:\n%s", buf.String())
	}
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, "NaN") {
		t.Errorf("Prometheus rendering leaked NaN:\n%s", s)
	}
}
