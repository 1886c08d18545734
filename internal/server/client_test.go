package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeWaitClient wires a Client to srv with an instrumented clock: sleeps
// are recorded instead of elapsing and the jitter source is pinned, so the
// backoff schedule is exact and the test runs in microseconds.
func fakeWaitClient(srv *httptest.Server, b Backoff, slept *[]time.Duration) *Client {
	return &Client{
		Base:    srv.URL,
		Backoff: b,
		sleep: func(ctx context.Context, d time.Duration) error {
			*slept = append(*slept, d)
			return ctx.Err()
		},
		rnd: func() float64 { return 0.5 }, // 1 + J*(2*0.5-1) = 1: jitter-neutral
	}
}

func statusHandler(t *testing.T, reply func(poll int) (int, JobStatus, http.Header)) http.Handler {
	t.Helper()
	var polls atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code, st, hdr := reply(int(polls.Add(1)))
		for k, vs := range hdr {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(code)
		if code == http.StatusOK {
			json.NewEncoder(w).Encode(st)
		} else {
			json.NewEncoder(w).Encode(map[string]string{"error": "busy"})
		}
	})
}

// TestWaitBackoffSchedule pins the exponential polling schedule: each
// delay doubles from Initial and saturates at Max.
func TestWaitBackoffSchedule(t *testing.T) {
	srv := httptest.NewServer(statusHandler(t, func(poll int) (int, JobStatus, http.Header) {
		if poll < 7 {
			return http.StatusOK, JobStatus{ID: "j1", State: StateRunning}, nil
		}
		return http.StatusOK, JobStatus{ID: "j1", State: StateDone}, nil
	}))
	defer srv.Close()

	var slept []time.Duration
	c := fakeWaitClient(srv, Backoff{Initial: 100 * time.Millisecond, Max: time.Second}, &slept)
	st, err := c.Wait(context.Background(), "j1")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	if len(slept) != len(want) {
		t.Fatalf("slept %d times (%v), want %d", len(slept), slept, len(want))
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("delay[%d] = %v, want %v", i, slept[i], want[i])
		}
	}
}

// TestWaitRetryAfterOverride pins that a 429's Retry-After hint replaces
// the computed delay for that attempt, and that the poll retries rather
// than failing.
func TestWaitRetryAfterOverride(t *testing.T) {
	srv := httptest.NewServer(statusHandler(t, func(poll int) (int, JobStatus, http.Header) {
		if poll == 1 {
			return http.StatusTooManyRequests, JobStatus{}, http.Header{"Retry-After": {"7"}}
		}
		return http.StatusOK, JobStatus{ID: "j1", State: StateDone}, nil
	}))
	defer srv.Close()

	var slept []time.Duration
	c := fakeWaitClient(srv, Backoff{Initial: 100 * time.Millisecond}, &slept)
	if _, err := c.Wait(context.Background(), "j1"); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(slept) != 1 || slept[0] != 7*time.Second {
		t.Fatalf("slept = %v, want exactly [7s] from Retry-After", slept)
	}
}

// TestWaitDefinitiveErrorFailsFast pins that a non-retryable API error
// (unknown job) fails the wait immediately instead of polling forever.
func TestWaitDefinitiveErrorFailsFast(t *testing.T) {
	var polls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "no such job"})
	}))
	defer srv.Close()

	var slept []time.Duration
	c := fakeWaitClient(srv, Backoff{}, &slept)
	_, err := c.Wait(context.Background(), "nope")
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("err = %v, want 404 APIError", err)
	}
	if n := polls.Load(); n != 1 {
		t.Fatalf("polled %d times, want 1", n)
	}
	if len(slept) != 0 {
		t.Fatalf("slept %v, want no sleeps", slept)
	}
}

// TestBackoffJitterBounds pins the jitter envelope: ±Jitter×delay, and
// negative Jitter disables it.
func TestBackoffJitterBounds(t *testing.T) {
	b := Backoff{Jitter: 0.2}.withDefaults()
	d := time.Second
	if got := b.jittered(d, func() float64 { return 0 }); got != 800*time.Millisecond {
		t.Errorf("rnd=0: %v, want 800ms", got)
	}
	if got := b.jittered(d, func() float64 { return 0.999 }); got <= d || got > 1200*time.Millisecond {
		t.Errorf("rnd→1: %v, want in (1s, 1.2s]", got)
	}
	off := Backoff{Jitter: -1}.withDefaults()
	if got := off.jittered(d, func() float64 { return 0 }); got != d {
		t.Errorf("jitter disabled: %v, want %v", got, d)
	}
}
