package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"voltstack/internal/core"
	"voltstack/internal/explore"
	"voltstack/internal/rescache"
	"voltstack/internal/telemetry"
	"voltstack/internal/telemetry/history"
)

// Service metrics. No-ops unless telemetry is enabled.
var (
	mSubmitted  = telemetry.NewCounter("server_jobs_submitted_total")
	mRejected   = telemetry.NewCounter("server_jobs_rejected_total")
	mCompleted  = telemetry.NewCounter("server_jobs_completed_total")
	mFailed     = telemetry.NewCounter("server_jobs_failed_total")
	mCancelled  = telemetry.NewCounter("server_jobs_cancelled_total")
	mResumed    = telemetry.NewCounter("server_jobs_resumed_total")
	mJobHits    = telemetry.NewCounter("server_job_cache_hits_total")
	mReplayed   = telemetry.NewCounter("server_points_replayed_total")
	mRunning    = telemetry.NewGauge("server_jobs_running")
	mQueueDepth = telemetry.NewGauge("server_queue_depth")
)

// ErrDraining rejects submissions while the manager is shutting down.
var ErrDraining = fmt.Errorf("server: draining, not accepting jobs")

// OverloadError rejects a submission because the admission queue is full.
type OverloadError struct {
	// RetryAfter is the server's hint for when to try again.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: job queue full, retry after %s", e.RetryAfter)
}

// Config parameterizes a Manager.
type Config struct {
	// MaxInFlight bounds the jobs running concurrently (default 2). Each
	// job additionally parallelizes internally over its Workers.
	MaxInFlight int
	// QueueDepth bounds the jobs waiting for a runner (default 8);
	// submissions past queued+running capacity are rejected with an
	// OverloadError (HTTP 429).
	QueueDepth int
	// Cache is the content-addressed result cache; nil builds a default
	// in-memory cache.
	Cache *rescache.Cache
	// StateDir, when set, journals job state there so incomplete jobs
	// resume after a restart and completed results survive it.
	StateDir string
	// RetryAfter is the hint attached to overload rejections (default 1s).
	RetryAfter time.Duration
	// History, when set, receives one timestamped record per terminal job
	// (wall/CPU attribution plus the job-scoped solver-health metrics), so
	// solver behavior stays queryable across daemon lifetimes.
	History *history.Store

	// Test seams: invoked at job start (inside the runner, before any
	// computation) and per completed sweep point. Both may be nil.
	testJobStart func(ctx context.Context, j *Job)
	testOnPoint  func(jobID string, index int)
}

// Job is one submitted evaluation. All exported access goes through
// Status / Result / Done.
type Job struct {
	id  string
	seq int64
	req JobRequest
	key string

	completed atomic.Int64
	done      chan struct{} // closed on terminal transition

	mu        sync.Mutex
	state     JobState
	total     int
	cacheHit  bool
	resumed   bool
	cancelled bool // user asked for cancellation
	errMsg    string
	created   time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
	result    []byte
	ckpt      *os.File // open checkpoint stream while a sweep runs

	// Request tracing and per-job attribution. trace is minted at Submit
	// when the caller sent no (or an invalid) traceparent; queueSpan
	// covers Submit→run on the process tracer; scope is the job's own
	// telemetry registry + exemplar store, layered over the process
	// registry; stats holds the frozen terminal stats document; cpu0 and
	// alloc0 anchor the run's CPU/allocation deltas.
	trace     telemetry.TraceContext
	queueSpan *telemetry.Span
	scope     *telemetry.Scope
	stats     []byte
	cpu0      float64
	alloc0    uint64
}

// Trace returns the job's trace context.
func (j *Job) Trace() telemetry.TraceContext { return j.trace }

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Kind:        j.req.Kind,
		Key:         j.key,
		Completed:   int(j.completed.Load()),
		Total:       j.total,
		CacheHit:    j.cacheHit,
		Resumed:     j.resumed,
		Error:       j.errMsg,
		ResultBytes: len(j.result),
		TraceID:     j.trace.TraceIDString(),
	}
	if !j.created.IsZero() {
		st.CreatedAt = j.created.UTC().Format(time.RFC3339Nano)
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return st
}

func (j *Job) userCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

func (j *Job) persisted() persistedJob {
	st := j.Status()
	return persistedJob{
		Cancelled:   j.userCancelled(),
		ID:          st.ID,
		Seq:         j.seq,
		Request:     j.req,
		State:       st.State,
		Key:         st.Key,
		Total:       st.Total,
		Completed:   st.Completed,
		CacheHit:    st.CacheHit,
		Resumed:     st.Resumed,
		Error:       st.Error,
		CreatedAt:   st.CreatedAt,
		StartedAt:   st.StartedAt,
		FinishedAt:  st.FinishedAt,
		Traceparent: j.trace.Traceparent(),
	}
}

// Manager owns the job queue, the runner pool, the result cache and the
// journal.
type Manager struct {
	cfg     Config
	cache   *rescache.Cache
	journal *journal

	ctx    context.Context
	cancel context.CancelFunc

	queue     chan *Job
	drainCh   chan struct{}
	drainOnce sync.Once
	draining  atomic.Bool
	wg        sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*Job
	nextSeq int64
}

// NewManager builds a manager, resumes any journaled incomplete jobs and
// starts the runner pool.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	cache := cfg.Cache
	if cache == nil {
		var err error
		if cache, err = rescache.New(rescache.Config{}); err != nil {
			return nil, err
		}
	}
	m := &Manager{
		cfg:     cfg,
		cache:   cache,
		queue:   make(chan *Job, cfg.QueueDepth),
		drainCh: make(chan struct{}),
		jobs:    map[string]*Job{},
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())

	var resumable []*Job
	if cfg.StateDir != "" {
		var err error
		if m.journal, err = newJournal(cfg.StateDir); err != nil {
			return nil, err
		}
		persisted, err := m.journal.load()
		if err != nil {
			return nil, err
		}
		for _, p := range persisted {
			j := m.adoptPersisted(p)
			if !j.Status().State.Terminal() {
				resumable = append(resumable, j)
			}
		}
	}

	for range cfg.MaxInFlight {
		m.wg.Add(1)
		go m.runLoop()
	}
	if len(resumable) > 0 {
		// Resumed jobs re-enter the queue in their original submission
		// order, bypassing admission (they were admitted before the
		// restart). The blocking send feeds however many there are through
		// the bounded queue as runners free up.
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for _, j := range resumable {
				select {
				case m.queue <- j:
					mQueueDepth.Set(float64(len(m.queue)))
				case <-m.ctx.Done():
					return
				}
			}
		}()
	}
	return m, nil
}

// adoptPersisted registers a journaled job. Non-terminal jobs come back
// as queued+resumed; done jobs reload their result lazily.
func (m *Manager) adoptPersisted(p persistedJob) *Job {
	j := &Job{
		id:       p.ID,
		seq:      p.Seq,
		req:      p.Request,
		key:      p.Key,
		state:    p.State,
		total:    p.Total,
		cacheHit: p.CacheHit,
		errMsg:   p.Error,
		done:     make(chan struct{}),
	}
	j.created = parseRFC3339(p.CreatedAt)
	j.finished = parseRFC3339(p.FinishedAt)
	if tc, err := telemetry.ParseTraceparent(p.Traceparent); err == nil {
		j.trace = tc
	}
	j.completed.Store(int64(p.Completed))
	switch {
	case j.state.Terminal():
		close(j.done)
	case p.Cancelled:
		// The previous process died between persisting the cancel intent
		// and the runner marking the job terminal. Finish the cancellation
		// now instead of resuming work the user already asked to stop.
		j.state = StateCancelled
		j.cancelled = true
		if j.errMsg == "" {
			j.errMsg = "cancelled"
		}
		close(j.done)
		defer m.saveMeta(j)
	default:
		j.state = StateQueued
		j.resumed = true
		j.started = time.Time{}
		j.completed.Store(0)
		mResumed.Add(1)
	}
	m.mu.Lock()
	m.jobs[j.id] = j
	if p.Seq >= m.nextSeq {
		m.nextSeq = p.Seq + 1
	}
	m.mu.Unlock()
	return j
}

func parseRFC3339(s string) time.Time {
	if s == "" {
		return time.Time{}
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}
	}
	return t
}

// jobCacheKey is the job's content address: schema version, code version
// and the normalized request, minus fields that cannot change the result
// (Workers only tunes concurrency; every output is worker-count
// invariant).
func jobCacheKey(req JobRequest) (string, error) {
	req.Workers = 0
	return rescache.Key("voltstack-job", SchemaVersion, telemetry.BuildStamp(), req)
}

// totalFor is the number of progress units a request will produce.
func totalFor(req JobRequest) int {
	switch req.Kind {
	case KindExperiment:
		return len(req.Experiments)
	case KindSweep:
		s := req.Sweep
		return len(s.TSVs) * len(s.PadFractions) * (1 + len(s.ConverterCount))
	default:
		return 1
	}
}

// Submit normalizes, validates, admits and enqueues a request. It
// returns ErrDraining during shutdown, an *OverloadError when the queue
// is full, or the queued job. The job gets a freshly minted trace
// context; use SubmitTrace to continue a caller's trace instead.
func (m *Manager) Submit(req JobRequest) (*Job, error) {
	return m.SubmitTrace(req, telemetry.TraceContext{})
}

// SubmitTrace is Submit under the caller's trace context (from a
// traceparent header, say): the job's spans join tc's trace with tc's
// span as parent. An invalid tc mints a fresh trace, so every job ends
// up with a trace ID either way.
func (m *Manager) SubmitTrace(req JobRequest, tc telemetry.TraceContext) (*Job, error) {
	req.Normalize()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if m.draining.Load() {
		return nil, ErrDraining
	}
	key, err := jobCacheKey(req)
	if err != nil {
		return nil, err
	}
	if !tc.Valid() {
		tc = telemetry.NewTrace()
	}
	j := &Job{
		req:     req,
		key:     key,
		state:   StateQueued,
		total:   totalFor(req),
		created: time.Now(),
		done:    make(chan struct{}),
		trace:   tc,
	}
	m.mu.Lock()
	j.seq = m.nextSeq
	m.nextSeq++
	m.mu.Unlock()
	j.id = fmt.Sprintf("j%d-%s", j.seq, randomSuffix())

	// The queue-wait span must exist before the channel send: the send is
	// what publishes j to runJob, so anything written after it races.
	j.queueSpan = telemetry.StartSpanTrace("server.queue-wait", tc)
	select {
	case m.queue <- j:
	default:
		j.queueSpan = nil // never ran: don't record a bogus queue-wait
		mRejected.Add(1)
		return nil, &OverloadError{RetryAfter: m.cfg.RetryAfter}
	}
	mQueueDepth.Set(float64(len(m.queue)))
	m.mu.Lock()
	m.jobs[j.id] = j
	m.mu.Unlock()
	m.saveMeta(j)
	mSubmitted.Add(1)
	return j, nil
}

func randomSuffix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs lists every known job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	m.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Result returns the output of a done job (from memory, or the journal
// after a restart).
func (m *Manager) Result(j *Job) ([]byte, error) {
	j.mu.Lock()
	res, state := j.result, j.state
	j.mu.Unlock()
	if state != StateDone {
		return nil, fmt.Errorf("server: job %s is %s", j.id, state)
	}
	if res != nil {
		return res, nil
	}
	if m.journal == nil {
		return nil, fmt.Errorf("server: job %s has no stored result", j.id)
	}
	res, err := m.journal.loadResult(j.id)
	if err != nil {
		return nil, fmt.Errorf("server: job %s result: %v", j.id, err)
	}
	j.mu.Lock()
	j.result = res
	j.mu.Unlock()
	return res, nil
}

// Cancel requests cancellation: a queued job terminates immediately, a
// running one has its context cancelled (the runner then marks it). The
// second return is false for unknown ids.
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return j, true
	}
	j.cancelled = true
	if j.state == StateQueued {
		j.state = StateCancelled
		j.errMsg = "cancelled before start"
		j.finished = time.Now()
		qs := j.queueSpan
		j.queueSpan = nil
		j.mu.Unlock()
		qs.End()
		mCancelled.Add(1)
		m.finalizeStats(j)
		m.saveMeta(j)
		close(j.done)
		return j, true
	}
	cancel := j.cancel
	j.mu.Unlock()
	// Persist the cancel intent before tripping the context: if the
	// process dies in the window where the runner has not yet marked the
	// job terminal, the journal still says "cancelled" and the next
	// restart finishes the cancellation instead of resuming the job.
	m.saveMeta(j)
	if cancel != nil {
		cancel()
	}
	return j, true
}

// Draining reports whether the manager has stopped admitting jobs.
func (m *Manager) Draining() bool { return m.draining.Load() }

// QueueDepth returns (queued, capacity).
func (m *Manager) QueueDepth() (int, int) { return len(m.queue), cap(m.queue) }

// RunningJobs counts jobs currently executing on a runner.
func (m *Manager) RunningJobs() int {
	n := 0
	for _, j := range m.Jobs() {
		j.mu.Lock()
		if j.state == StateRunning {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Drain stops admission, finishes every queued and running job, and
// returns when the runners are idle. If ctx expires first, in-flight
// jobs are hard-cancelled (their journal state stays resumable) and
// ctx's error is returned.
func (m *Manager) Drain(ctx context.Context) error {
	m.draining.Store(true)
	m.drainOnce.Do(func() { close(m.drainCh) })
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.cancel()
		<-done
		return ctx.Err()
	}
}

// Close hard-stops the manager: admission off, every running job's
// context cancelled, runners joined. Jobs interrupted mid-run keep their
// non-terminal journal state and resume on the next NewManager with the
// same StateDir.
func (m *Manager) Close() {
	m.draining.Store(true)
	m.drainOnce.Do(func() { close(m.drainCh) })
	m.cancel()
	m.wg.Wait()
}

func (m *Manager) saveMeta(j *Job) {
	if m.journal == nil {
		return
	}
	if err := m.journal.saveMeta(j.persisted()); err != nil {
		telemetry.Event(slog.LevelWarn, "server: journal write failed",
			slog.String("job", j.id), slog.String("error", err.Error()))
	}
}

func (m *Manager) runLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			mQueueDepth.Set(float64(len(m.queue)))
			m.runJob(j)
		case <-m.drainCh:
			// Drain mode: finish whatever is still queued, then exit.
			for {
				select {
				case j := <-m.queue:
					mQueueDepth.Set(float64(len(m.queue)))
					m.runJob(j)
				case <-m.ctx.Done():
					return
				default:
					return
				}
			}
		}
	}
}

func (m *Manager) runJob(j *Job) {
	j.mu.Lock()
	if j.state.Terminal() { // cancelled while queued
		j.mu.Unlock()
		return
	}
	jobCtx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	qs := j.queueSpan
	j.queueSpan = nil
	tc := j.trace
	scope := telemetry.NewScope(tc)
	j.scope = scope
	j.cpu0 = telemetry.ProcessCPUSeconds()
	j.alloc0 = totalAlloc()
	queueWait := j.started.Sub(j.created).Seconds()
	j.mu.Unlock()
	qs.End()
	scope.Histogram("job_queue_wait_seconds").Observe(queueWait)
	jobCtx = telemetry.WithScope(jobCtx, scope)
	sp := telemetry.StartSpanTrace("server.job."+j.req.Kind, tc)
	m.saveMeta(j)
	// Atomic up/down: with MaxInFlight > 1 runners race here, and a
	// Set(Value()+1) pair can lose an update and leave the gauge non-zero
	// after the pool drains.
	mRunning.Add(1)
	defer mRunning.Add(-1)
	if m.cfg.testJobStart != nil {
		m.cfg.testJobStart(jobCtx, j)
	}

	val, hit, err := m.cache.Do(j.key, func() ([]byte, error) {
		return m.compute(jobCtx, j)
	})
	sp.End()

	j.mu.Lock()
	if j.ckpt != nil {
		j.ckpt.Close()
		j.ckpt = nil
	}
	j.mu.Unlock()

	switch {
	case err == nil:
		if hit {
			j.mu.Lock()
			j.cacheHit = true
			j.mu.Unlock()
			mJobHits.Add(1)
		}
		j.completed.Store(int64(j.total))
		if m.journal != nil {
			if werr := m.journal.saveResult(j.id, val); werr != nil {
				telemetry.Event(slog.LevelWarn, "server: result write failed",
					slog.String("job", j.id), slog.String("error", werr.Error()))
			}
		}
		m.finish(j, StateDone, val, "")
		mCompleted.Add(1)
	case j.userCancelled():
		m.finish(j, StateCancelled, nil, "cancelled")
		mCancelled.Add(1)
	case m.ctx.Err() != nil:
		// Shutdown interrupted the job: leave the journal non-terminal so
		// the next manager resumes it from its checkpoint. In memory it
		// goes back to queued for accurate status until the process exits.
		j.mu.Lock()
		j.state = StateQueued
		j.cancel = nil
		j.scope = nil
		j.cpu0, j.alloc0 = 0, 0
		j.mu.Unlock()
	default:
		m.finish(j, StateFailed, nil, err.Error())
		mFailed.Add(1)
	}
}

func (m *Manager) finish(j *Job, state JobState, result []byte, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.finished = time.Now()
	j.cancel = nil
	j.mu.Unlock()
	// Freeze the stats before announcing completion: a reader woken by
	// Done must find the final document, not race finalizeStats with a
	// second, later one.
	m.finalizeStats(j)
	m.saveMeta(j)
	close(j.done)
}

// newStudy builds the deterministic study a request asks for — the same
// construction as cmd/vsexplore's flags, so rendered output matches the
// CLI byte for byte.
func newStudy(req JobRequest) *core.Study {
	s := core.NewStudy()
	if req.Coarse {
		s.Coarse()
	}
	s.Workers = req.Workers
	s.Seed = req.Seed
	return s
}

func (m *Manager) compute(ctx context.Context, j *Job) ([]byte, error) {
	switch j.req.Kind {
	case KindExperiment:
		return m.computeExperiments(ctx, j)
	case KindEMMC:
		return m.computeEMMC(ctx, j)
	case KindSweep:
		return m.computeSweep(ctx, j)
	default:
		return nil, fmt.Errorf("server: unknown kind %q", j.req.Kind)
	}
}

// computeExperiments runs the selected drivers in order and concatenates
// their renderings exactly as vsexplore prints them (each text rendering
// followed by a blank line; CSV renderings back to back). Cancellation
// is honored between drivers.
func (m *Manager) computeExperiments(ctx context.Context, j *Job) ([]byte, error) {
	s := newStudy(j.req)
	s.Trace = telemetry.TraceContextFrom(ctx)
	var buf bytes.Buffer
	for _, name := range j.req.Experiments {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out, err := core.RunExperiment(s, name, j.req.CSV)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		buf.WriteString(out)
		if !j.req.CSV {
			buf.WriteByte('\n')
		}
		j.completed.Add(1)
		m.saveMeta(j)
	}
	return buf.Bytes(), nil
}

func (m *Manager) computeEMMC(ctx context.Context, j *Job) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newStudy(j.req)
	s.Trace = telemetry.TraceContextFrom(ctx)
	r, err := s.ExtEMMonteCarlo(ctx, j.req.Trials)
	if err != nil {
		return nil, err
	}
	j.completed.Store(1)
	return []byte(core.RenderExtEMMonteCarlo(r)), nil
}

// buildSpace maps a normalized sweep request onto an explore.Space.
func buildSpace(req JobRequest) explore.Space {
	spec := req.Sweep
	sp := explore.DefaultSpace()
	sp.Layers = spec.Layers
	sp.Imbalance = *spec.Imbalance
	sp.PadFractions = append([]float64(nil), spec.PadFractions...)
	sp.ConverterCount = append([]int(nil), spec.ConverterCount...)
	sp.TSVs = sp.TSVs[:0]
	for _, name := range spec.TSVs {
		sp.TSVs = append(sp.TSVs, tsvTopologies[name]())
	}
	sp.Params.GridNx, sp.Params.GridNy = spec.GridNx, spec.GridNy
	sp.Workers = req.Workers
	return sp
}

// pointKey is the content address of one design point's raw metrics: the
// fingerprint of the PDN configuration the evaluation solves plus the
// evaluation conditions.
func pointKey(sp explore.Space, d explore.Design) (string, error) {
	return rescache.Key("sweep-point", SchemaVersion, telemetry.BuildStamp(), map[string]any{
		"pdn":       sp.PDNConfig(d).CacheFingerprint(),
		"imbalance": sp.Imbalance,
		"em_tsv":    sp.EMTsv,
		"em_c4":     sp.EMC4,
	})
}

// computeSweep evaluates the design space with two layers of replay under
// the whole-job cache: the job's own journal checkpoint (resume after a
// restart) and the per-point result cache (shared across jobs that touch
// the same designs). Fresh points are checkpointed and cached as they
// complete; replayed points are bit-identical to recomputation because
// metrics round-trip losslessly through canonical JSON.
func (m *Manager) computeSweep(ctx context.Context, j *Job) ([]byte, error) {
	sp := buildSpace(j.req)
	designs := sp.Designs()
	keys := make([]string, len(designs))
	for i, d := range designs {
		k, err := pointKey(sp, d)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}

	scope := telemetry.ScopeFrom(ctx)
	pre := map[int]*explore.Metrics{}
	if m.journal != nil {
		ck, err := m.journal.loadCheckpoint(j.id)
		if err != nil {
			return nil, err
		}
		for i, raw := range ck {
			if i < 0 || i >= len(designs) {
				continue
			}
			var mt explore.Metrics
			if json.Unmarshal(raw, &mt) == nil {
				pre[i] = &mt
			}
		}
		scope.Counter("job_ckpt_points_total").Add(int64(len(pre)))
	}
	for i, k := range keys {
		if _, ok := pre[i]; ok {
			continue
		}
		if b, ok := m.cache.Get(k); ok {
			var mt explore.Metrics
			if json.Unmarshal(b, &mt) == nil {
				pre[i] = &mt
				scope.Counter("job_rescache_point_hits_total").Add(1)
				continue
			}
		}
		scope.Counter("job_rescache_point_misses_total").Add(1)
	}
	if n := len(pre); n > 0 {
		mReplayed.Add(int64(n))
	}

	// The checkpoint stream opens before any evaluation, so every fresh
	// point is journaled as it completes and a crash mid-sweep resumes
	// from it.
	var ckptMu sync.Mutex
	if m.journal != nil {
		f, err := m.journal.openCheckpoint(j.id)
		if err != nil {
			return nil, err
		}
		j.mu.Lock()
		j.ckpt = f
		j.mu.Unlock()
	}
	checkpoint := func(i int, b []byte) {
		if m.journal == nil {
			return
		}
		line, _ := json.Marshal(ckptLine{I: i, M: b})
		line = append(line, '\n')
		ckptMu.Lock()
		j.mu.Lock()
		f := j.ckpt
		j.mu.Unlock()
		if f != nil {
			if _, werr := f.Write(line); werr != nil {
				telemetry.Event(slog.LevelWarn, "server: checkpoint write failed",
					slog.String("job", j.id), slog.String("error", werr.Error()))
			}
		}
		ckptMu.Unlock()
	}

	sp.Precomputed = pre
	sp.OnPoint = func(i int, mt *explore.Metrics) {
		j.completed.Add(1)
		if _, replayed := pre[i]; !replayed {
			b, err := rescache.CanonicalJSON(mt)
			if err == nil {
				m.cache.Put(keys[i], b)
				checkpoint(i, b)
			}
		}
		if m.cfg.testOnPoint != nil {
			m.cfg.testOnPoint(j.id, i)
		}
	}

	res, err := sp.Run(ctx)
	if err != nil {
		return nil, err
	}
	return rescache.CanonicalJSON(res)
}

// EvaluateDesign evaluates a single design synchronously through the
// per-point cache (with singleflight dedup of concurrent identical
// evaluations) and returns the raw metrics in canonical JSON. The
// context's trace spans annotate the solve; it does not affect the
// result bytes.
func (m *Manager) EvaluateDesign(ctx context.Context, sp explore.Space, d explore.Design) ([]byte, error) {
	key, err := pointKey(sp, d)
	if err != nil {
		return nil, err
	}
	val, _, err := m.cache.Do(key, func() ([]byte, error) {
		mt, err := sp.Evaluate(ctx, d)
		if err != nil {
			return nil, err
		}
		return rescache.CanonicalJSON(mt)
	})
	return val, err
}
