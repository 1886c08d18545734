package telemetry

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// DefaultProgressInterval is the minimum spacing between progress lines.
// Long sweeps print roughly one line per interval; anything that finishes
// inside the first interval prints nothing at all, so quick runs stay
// silent.
const DefaultProgressInterval = 5 * time.Second

var (
	progressOn       atomic.Bool
	progressInterval atomic.Int64 // nanoseconds
	progressWriter   atomic.Pointer[io.Writer]
)

func init() { progressInterval.Store(int64(DefaultProgressInterval)) }

// EnableProgress turns on stderr progress reporting. interval <= 0 keeps
// the current (default 5 s) spacing.
func EnableProgress(interval time.Duration) {
	if interval > 0 {
		progressInterval.Store(int64(interval))
	}
	progressOn.Store(true)
}

// DisableProgress turns progress reporting back off.
func DisableProgress() { progressOn.Store(false) }

// SetProgressWriter redirects progress lines (default os.Stderr); a nil w
// restores the default. For tests.
func SetProgressWriter(w io.Writer) {
	if w == nil {
		progressWriter.Store(nil)
		return
	}
	progressWriter.Store(&w)
}

func progressOut() io.Writer {
	if w := progressWriter.Load(); w != nil {
		return *w
	}
	return os.Stderr
}

// Progress tracks completion of a known number of work items and prints
// rate-limited "label: done/total (pct) rate" lines to stderr. NewProgress
// returns nil when progress reporting is disabled, and all methods are
// nil-safe, so call sites need no conditionals. Progress never writes to
// stdout, keeping program outputs byte-identical with telemetry on or off.
type Progress struct {
	label   string
	total   int64
	done    atomic.Int64
	start   time.Time
	last    atomic.Int64 // unixnano of the last printed line
	printed atomic.Bool
}

// NewProgress starts tracking total work items under the given label.
// Returns nil (a no-op) when progress reporting is disabled.
func NewProgress(label string, total int) *Progress {
	if !progressOn.Load() {
		return nil
	}
	now := time.Now()
	p := &Progress{label: label, total: int64(total), start: now}
	p.last.Store(now.UnixNano())
	return p
}

// Add records n completed items and prints a line if the reporting
// interval has elapsed since the last one.
func (p *Progress) Add(n int) {
	if p == nil {
		return
	}
	done := p.done.Add(int64(n))
	now := time.Now().UnixNano()
	last := p.last.Load()
	if now-last < progressInterval.Load() {
		return
	}
	if !p.last.CompareAndSwap(last, now) {
		return // another goroutine just printed
	}
	p.print(done)
}

// Finish prints a final line — but only if at least one periodic line was
// printed, so short runs remain completely silent.
func (p *Progress) Finish() {
	if p == nil || !p.printed.Load() {
		return
	}
	p.print(p.done.Load())
}

func (p *Progress) print(done int64) {
	p.printed.Store(true)
	elapsed := time.Since(p.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed
	}
	if p.total > 0 {
		fmt.Fprintf(progressOut(), "%s: %d/%d (%.0f%%) %.1f/s elapsed %.0fs\n",
			p.label, done, p.total, 100*float64(done)/float64(p.total), rate, elapsed)
	} else {
		fmt.Fprintf(progressOut(), "%s: %d done %.1f/s elapsed %.0fs\n",
			p.label, done, rate, elapsed)
	}
}
