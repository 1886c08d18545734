package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"voltstack/internal/telemetry"
)

// Client-side retry instrumentation. No-op unless telemetry is enabled.
var mClientRetries = telemetry.NewCounter("client_retries_total")

// Backoff is an exponential polling/retry schedule with jitter. The zero
// value selects the defaults: 100ms initial, 5s cap, ×2 growth, ±20%
// jitter.
type Backoff struct {
	// Initial is the first delay; 0 selects 100ms.
	Initial time.Duration
	// Max caps the grown delay; 0 selects 5s.
	Max time.Duration
	// Factor multiplies the delay after each attempt; values <= 1 select 2.
	Factor float64
	// Jitter spreads each delay uniformly over ±Jitter×delay. 0 selects
	// 0.2; negative disables jitter entirely (deterministic schedule).
	Jitter float64
}

func (b Backoff) withDefaults() Backoff {
	if b.Initial <= 0 {
		b.Initial = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.Factor <= 1 {
		b.Factor = 2
	}
	if b.Jitter == 0 {
		b.Jitter = 0.2
	}
	return b
}

// next returns the delay after d on the schedule.
func (b Backoff) next(d time.Duration) time.Duration {
	if d = time.Duration(float64(d) * b.Factor); d > b.Max {
		d = b.Max
	}
	return d
}

// jittered spreads d over ±Jitter×d using rnd (a uniform [0,1) source).
func (b Backoff) jittered(d time.Duration, rnd func() float64) time.Duration {
	if b.Jitter <= 0 || rnd == nil {
		return d
	}
	return time.Duration(float64(d) * (1 + b.Jitter*(2*rnd()-1)))
}

// Client talks to a vsserved instance. The zero HTTP client and backoff
// are usable defaults; only Base is required.
type Client struct {
	// Base is the server's base URL, e.g. "http://localhost:8324".
	Base string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
	// Poll is the legacy fixed Wait interval; when set it becomes the
	// backoff's initial delay (Backoff wins if both are set).
	Poll time.Duration
	// Backoff shapes Wait's polling and transient-error retries:
	// exponential with jitter, except that a server Retry-After hint (429
	// overload, 503 drain) overrides the computed delay for that attempt.
	Backoff Backoff
	// Trace, when valid, is sent as a W3C traceparent header on every
	// request (each with a fresh span ID under the same trace), so the
	// server's spans join the client's trace end to end.
	Trace telemetry.TraceContext

	// Test seams: sleep (nil: timer-based, honoring ctx) and rnd (nil:
	// math/rand/v2) let tests pin the backoff schedule under a fake clock.
	sleep func(ctx context.Context, d time.Duration) error
	rnd   func() float64
}

func (c *Client) sleepFn() func(context.Context, time.Duration) error {
	if c.sleep != nil {
		return c.sleep
	}
	return func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
}

func (c *Client) rndFn() func() float64 {
	if c.rnd != nil {
		return c.rnd
	}
	return rand.Float64
}

// backoff returns the effective Wait schedule: Backoff with defaults
// applied, the legacy Poll standing in for an unset initial delay.
func (c *Client) backoff() Backoff {
	b := c.Backoff
	if b.Initial <= 0 && c.Poll > 0 {
		b.Initial = c.Poll
	}
	return b.withDefaults()
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// APIError is a non-2xx response: the decoded error message plus the
// status code (and Retry-After for 429s).
type APIError struct {
	StatusCode int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.StatusCode, e.Message)
}

// do issues one request; a non-2xx response comes back as an *APIError.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Trace.Valid() {
		req.Header.Set("traceparent", c.Trace.Child().Traceparent())
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	apiErr := &APIError{StatusCode: resp.StatusCode}
	var eb errorBody
	if derr := json.NewDecoder(io.LimitReader(resp.Body, MaxRequestBody)).Decode(&eb); derr == nil && eb.Error != "" {
		apiErr.Message = eb.Error
	} else {
		apiErr.Message = resp.Status
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	return nil, apiErr
}

func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a job and returns its accepted status.
func (c *Client) Submit(ctx context.Context, req JobRequest) (JobStatus, error) {
	var st JobStatus
	body, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	err = c.doJSON(ctx, http.MethodPost, "/v1/jobs", body, &st)
	return st, err
}

// Status fetches a job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// List fetches every job.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Result fetches the output bytes of a done job.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Stats fetches the raw per-job stats document (JSON bytes, served
// verbatim so a terminal job's stats are byte-identical on every read).
func (c *Client) Stats(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/stats", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Cancel requests cancellation and returns the resulting status.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Evaluate fetches GET /v1/designs:evaluate with the given query
// parameters and returns the design's canonical-JSON metrics.
func (c *Client) Evaluate(ctx context.Context, params url.Values) ([]byte, error) {
	path := "/v1/designs:evaluate"
	if len(params) > 0 {
		path += "?" + params.Encode()
	}
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// retryableWait reports whether a Wait poll error is worth retrying:
// transport failures (the daemon may be mid-restart) and explicit
// back-off responses (429 overload, 503 drain). Definitive API errors —
// unknown job, bad request — fail immediately.
func retryableWait(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		return true // transport-level: connection refused, reset, timeout
	}
	return ae.StatusCode == http.StatusTooManyRequests ||
		ae.StatusCode == http.StatusServiceUnavailable
}

// Wait polls until the job reaches a terminal state (or ctx expires).
// Polling follows the client's Backoff — exponential with jitter, so a
// long-running job is probed ever less often — and transient errors
// (transport failures, 429, 503) retry on the same schedule instead of
// failing the wait. A Retry-After hint from the server overrides the
// computed delay for that attempt.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	b := c.backoff()
	sleep, rnd := c.sleepFn(), c.rndFn()
	delay := b.Initial
	var last JobStatus
	for {
		st, err := c.Status(ctx, id)
		switch {
		case err == nil:
			last = st
			if st.State.Terminal() {
				return st, nil
			}
		case !retryableWait(err):
			return last, err
		default:
			if ctx.Err() != nil {
				return last, ctx.Err()
			}
			mClientRetries.Add(1)
		}
		d := b.jittered(delay, rnd)
		var ae *APIError
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			d = ae.RetryAfter // the server knows better than the schedule
		}
		if serr := sleep(ctx, d); serr != nil {
			return last, serr
		}
		delay = b.next(delay)
	}
}

// Run submits a job, waits for it and returns its result bytes. A failed
// or cancelled job comes back as an error.
func (c *Client) Run(ctx context.Context, req JobRequest) ([]byte, JobStatus, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return nil, st, err
	}
	if st, err = c.Wait(ctx, st.ID); err != nil {
		return nil, st, err
	}
	if st.State != StateDone {
		if st.State == StateFailed {
			return nil, st, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
		}
		return nil, st, fmt.Errorf("job %s %s", st.ID, st.State)
	}
	res, err := c.Result(ctx, st.ID)
	return res, st, err
}
