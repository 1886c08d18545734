package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"voltstack/internal/explore"
	"voltstack/internal/pdngrid"
	"voltstack/internal/server"
)

// serveSize scales serve-mixed: requests per round and closed-loop clients.
type serveSize struct{ requests, clients int }

// serveFull matches the daemon's default admission (-max-inflight 2) with
// two clients, so the queue is exercised without ever rejecting.
var serveFull = serveSize{requests: 100, clients: 2}

// The request mix. Evaluate keys are design × imbalance (45 × 6 = 270);
// a sweep job is one TSV topology and pad fraction at one imbalance, with
// a regular design and two V-S converter counts, so its 3 points share
// keys with the evaluate pool.
var (
	serveImbalances = []float64{0.2, 0.35, 0.5, 0.65, 0.8, 0.95}
	serveTSVs       = map[string]func() pdngrid.TSVTopology{
		"dense": pdngrid.DenseTSV, "sparse": pdngrid.SparseTSV, "few": pdngrid.FewTSV,
	}
)

const (
	serveRepeatShare = 0.3 // requests of each kind that repeat an earlier one
	serveSweepShare  = 0.2 // requests that are sweep jobs
	serveLayers      = 8
	serveGrid        = 16
	sweepPoints      = 3
)

// serveRequest is one request of the generated sequence.
type serveRequest struct {
	key  string     // requests with equal keys must get identical bytes
	eval url.Values // GET /v1/designs:evaluate; nil for a sweep job
	job  server.JobRequest
	// cached: every design point the request needs was asked for by an
	// earlier request of the sequence, so the daemon's cache should hold it.
	cached bool
}

// serveRequests draws the request sequence of one seed. Only the keys and
// the order depend on the seed; the mix does not: exactly 20% of the
// requests are sweep jobs and the rest evaluate requests, and of each
// kind exactly 30% repeat an earlier request of that kind, chosen
// uniformly. A fresh request takes a key not used before, cycling through
// the designs (evaluate) or the TSV × pad-fraction pairs (sweep) in a
// shuffled order, so every seed spreads its work alike over the designs.
func serveRequests(seed int64, n int) []serveRequest {
	rng := rand.New(rand.NewSource(seed))
	sweep := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(math.Round(serveSweepShare*float64(n)))] {
		sweep[i] = true
	}
	repeat := make([]bool, n)
	for _, kind := range []bool{false, true} {
		var pos []int
		for i := range sweep {
			if sweep[i] == kind {
				pos = append(pos, i)
			}
		}
		if len(pos) < 2 {
			continue
		}
		m := int(math.Round(serveRepeatShare * float64(len(pos))))
		for _, j := range rng.Perm(len(pos) - 1)[:m] {
			repeat[pos[j+1]] = true // the first of a kind has nothing to repeat
		}
	}

	designs := explore.DefaultSpace().Designs()
	type tsvPad struct {
		tsv string
		pf  float64
	}
	var pairs []tsvPad
	for _, tsv := range []string{"dense", "sparse", "few"} {
		for _, pf := range []float64{0.25, 0.5, 1.0} {
			pairs = append(pairs, tsvPad{tsv, pf})
		}
	}
	convs := []int{2, 4, 6, 8}
	// cycle returns the next index of a shuffled round-robin over n items.
	cycle := func(n int) func() int {
		var order []int
		return func() int {
			if len(order) == 0 {
				order = rng.Perm(n)
			}
			i := order[0]
			order = order[1:]
			return i
		}
	}
	nextDesign, nextPair := cycle(len(designs)), cycle(len(pairs))

	used := map[string]bool{}
	asked := map[string]bool{} // design point × imbalance
	var out []serveRequest
	for i := 0; i < n; i++ {
		if repeat[i] {
			var earlier []int
			for j := range out {
				if sweep[j] == sweep[i] {
					earlier = append(earlier, j)
				}
			}
			req := out[earlier[rng.Intn(len(earlier))]]
			req.cached = true
			out = append(out, req)
			continue
		}
		var req serveRequest
		var points []string
		var imb float64
		if sweep[i] {
			p := pairs[nextPair()]
			for {
				imb = serveImbalances[rng.Intn(len(serveImbalances))]
				perm := rng.Perm(len(convs))
				c1, c2 := min(convs[perm[0]], convs[perm[1]]), max(convs[perm[0]], convs[perm[1]])
				req.key = fmt.Sprintf("sweep %s %g %d,%d imbalance %g", p.tsv, p.pf, c1, c2, imb)
				if used[req.key] {
					continue
				}
				req.job = server.JobRequest{
					Kind:   server.KindSweep,
					Coarse: true,
					Sweep: &server.SweepSpec{
						Layers:         serveLayers,
						Imbalance:      &imb,
						PadFractions:   []float64{p.pf},
						ConverterCount: []int{c1, c2},
						TSVs:           []string{p.tsv},
					},
				}
				topo := serveTSVs[p.tsv]()
				points = []string{
					explore.Design{Kind: pdngrid.Regular, TSV: topo, PadPowerFraction: p.pf}.Name(),
					explore.Design{Kind: pdngrid.VoltageStacked, TSV: topo, PadPowerFraction: p.pf, ConvertersPerCore: c1}.Name(),
					explore.Design{Kind: pdngrid.VoltageStacked, TSV: topo, PadPowerFraction: p.pf, ConvertersPerCore: c2}.Name(),
				}
				break
			}
		} else {
			d := designs[nextDesign()]
			for {
				imb = serveImbalances[rng.Intn(len(serveImbalances))]
				req.key = fmt.Sprintf("evaluate %s imbalance %g", d.Name(), imb)
				if !used[req.key] {
					break
				}
			}
			req.eval = url.Values{
				"layers":       {strconv.Itoa(serveLayers)},
				"tsv":          {strings.ToLower(d.TSV.Name)},
				"pad_fraction": {strconv.FormatFloat(d.PadPowerFraction, 'g', -1, 64)},
				"imbalance":    {strconv.FormatFloat(imb, 'g', -1, 64)},
				"grid":         {strconv.Itoa(serveGrid)},
			}
			if d.Kind == pdngrid.VoltageStacked {
				req.eval.Set("kind", "vs")
				req.eval.Set("converters", strconv.Itoa(d.ConvertersPerCore))
			} else {
				req.eval.Set("kind", "regular")
			}
			points = []string{d.Name()}
		}
		used[req.key] = true
		req.cached = true
		for _, p := range points {
			p = fmt.Sprintf("%s imbalance %g", p, imb)
			req.cached = req.cached && asked[p]
			asked[p] = true
		}
		out = append(out, req)
	}
	return out
}

// serveRound runs one round of serve-mixed against a fresh vsserved: the
// daemon starts with empty state and cache directories under work, the
// clients send every request, and the daemon drains on SIGTERM and must
// exit cleanly.
func serveRound(bin, work string, reqs []serveRequest, size serveSize, traced bool) (*Round, error) {
	dir, err := os.MkdirTemp(work, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(bin, dir)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(traced)
	layer := serveLoad(d.base, reqs, size.clients, rec)
	r := rec.round(size.clients)
	r.Layer = layer
	ps, err := d.stop()
	if err != nil {
		r.Errors = append(r.Errors, err.Error())
	}
	r.SetupS = d.setupS
	r.CPUS, r.RSSMB = usage(ps)
	return r, nil
}

// serveSetup measures one daemon start: spawn to the first /healthz 200.
func serveSetup(bin, work string) (float64, error) {
	dir, err := os.MkdirTemp(work, "serve-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(bin, dir)
	if err != nil {
		return 0, err
	}
	// vsserved installs its SIGTERM handler just after it starts serving;
	// a signal in between kills it undrained, so give it a moment.
	time.Sleep(50 * time.Millisecond)
	if _, err := d.stop(); err != nil {
		return 0, err
	}
	return d.setupS, nil
}

// serveLoad sends reqs from closed-loop clients, each waiting for its
// reply before taking the next request of the sequence, and checks every
// response. It returns the round's per-layer counts.
func serveLoad(base string, reqs []serveRequest, clients int, rec *recorder) map[string]float64 {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	c := &server.Client{
		Base: base,
		HTTP: &http.Client{Transport: tr},
		// A fixed 10 ms poll: vsctl's default schedule (200 ms, doubling,
		// with unseeded jitter) would add up to the job's own run time to
		// a short job's latency, and noise with it.
		Backoff: server.Backoff{Initial: 10 * time.Millisecond, Max: 10 * time.Millisecond, Jitter: -1},
	}

	var (
		next      atomic.Int64
		mu        sync.Mutex
		first     = map[string][]byte{}
		rejected  float64
		pointHits float64
		wg        sync.WaitGroup
	)
	// same checks that a repeated key gets the bytes of its first reply.
	same := func(key string, body []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := first[key]; ok && !bytes.Equal(prev, body) {
			return fmt.Errorf("reply differs from the first reply to the same request")
		}
		first[key] = body
		return nil
	}
	refused := func(err error) {
		var ae *server.APIError
		if errors.As(err, &ae) && (ae.StatusCode == http.StatusTooManyRequests || ae.StatusCode == http.StatusServiceUnavailable) {
			mu.Lock()
			rejected++
			mu.Unlock()
		}
	}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(reqs) {
					return
				}
				req := reqs[k]
				if req.eval != nil {
					name := "server.evaluate_miss"
					if req.cached {
						name = "server.evaluate_hit"
					}
					start := time.Now()
					body, err := c.Evaluate(ctx, req.eval)
					d := time.Since(start)
					if err == nil {
						var m explore.Metrics
						if err = json.Unmarshal(body, &m); err == nil {
							err = same(req.key, body)
						}
					}
					refused(err)
					rec.done(name, req.key, d, err)
					rec.span(name, "", 0, start, d)
					continue
				}
				id, err := runJob(ctx, c, req, rec, same)
				refused(err)
				if rec.traced && id != "" {
					if n, err := jobPointHits(ctx, c, id); err == nil {
						mu.Lock()
						pointHits += n
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	return map[string]float64{"server.rejected": rejected, "rescache.job_point_hits": pointHits}
}

// runJob submits a sweep job, polls it to completion and fetches its
// result, as `vsctl run` does. The whole exchange is one op; its phases
// are spans, with the queue wait, run and poll lag taken from the job's
// server-side timestamps. It returns the job ID once submitted.
func runJob(ctx context.Context, c *server.Client, req serveRequest, rec *recorder, same func(string, []byte) error) (string, error) {
	start := time.Now()
	st, err := c.Submit(ctx, req.job)
	submitted := time.Now()
	if err == nil {
		st, err = c.Wait(ctx, st.ID)
	}
	waited := time.Now()
	if err == nil && st.State != server.StateDone {
		err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	var body []byte
	if err == nil {
		body, err = c.Result(ctx, st.ID)
	}
	end := time.Now()
	if err == nil {
		var res explore.Result
		if err = json.Unmarshal(body, &res); err == nil {
			if n := len(res.Points) + res.Dropped; n != sweepPoints {
				err = fmt.Errorf("sweep result holds %d points, want %d", n, sweepPoints)
			} else {
				err = same(req.key, body)
			}
		}
	}
	rec.done("server.job", req.key, end.Sub(start), err)
	id := rec.span("server.job", "", 0, start, end.Sub(start))
	rec.span("server.job.submit", "", id, start, submitted.Sub(start))
	rec.span("server.job.fetch", "", id, waited, end.Sub(waited))
	created, err1 := time.Parse(time.RFC3339Nano, st.CreatedAt)
	started, err2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	finished, err3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if err1 == nil && err2 == nil && err3 == nil {
		rec.span("server.job.queue_wait", "", id, created, started.Sub(created))
		rec.span("server.job.run", "", id, started, finished.Sub(started))
		rec.span("server.job.poll_lag", "", id, finished, waited.Sub(finished))
	}
	return st.ID, err
}

// jobPointHits reads how many of a job's sweep points the per-point result
// cache served, from the job's stats document.
func jobPointHits(ctx context.Context, c *server.Client, id string) (float64, error) {
	b, err := c.Stats(ctx, id)
	if err != nil {
		return 0, err
	}
	var doc server.JobStats
	if err := json.Unmarshal(b, &doc); err != nil {
		return 0, err
	}
	return float64(doc.Registry.Counters["job_rescache_point_hits_total"]), nil
}

// servingRE matches the line vsserved prints once it listens.
var servingRE = regexp.MustCompile(`serving (http://[^/\s]+)`)

// daemon is a running vsserved.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	setupS float64
	logged chan struct{} // closed once the daemon's stderr is drained
	log    []string
}

// startDaemon spawns vsserved on an ephemeral loopback port with its
// default admission settings, reads its address from the "serving" line,
// and waits for /healthz to answer 200. setupS is spawn to that answer.
func startDaemon(bin, dir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-state-dir", filepath.Join(dir, "state"), "-cache-dir", filepath.Join(dir, "cache"))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logged: make(chan struct{})}
	addr := make(chan string, 1)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vsserved: %w", err)
	}
	go func() {
		defer close(d.logged)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			d.log = append(d.log, sc.Text())
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
			}
		}
	}()
	select {
	case d.base = <-addr:
	case <-d.logged:
		d.kill()
		return nil, fmt.Errorf("vsserved exited before serving: %s", strings.Join(d.log, "; "))
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("vsserved printed no address within 60s")
	}
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("vsserved /healthz not ready within 60s")
		}
	}
	d.setupS = time.Since(t0).Seconds()
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit. An exit
// status other than 0 is an error; the process state is returned either
// way.
func (d *daemon) stop() (*os.ProcessState, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return d.cmd.ProcessState, fmt.Errorf("signal vsserved: %w", err)
	}
	<-d.logged
	if err := d.cmd.Wait(); err != nil {
		return d.cmd.ProcessState, fmt.Errorf("vsserved drain: %v: %s", err, strings.Join(d.log, "; "))
	}
	return d.cmd.ProcessState, nil
}

// kill ends the daemon at once and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.logged
	d.cmd.Wait()
}
