// Package server is the evaluation service: an HTTP/JSON front end over
// the cross-layer models (explore sweeps, the core experiment registry,
// the EM Monte Carlo cross-check) with bounded admission control,
// per-job cancellation, content-addressed result caching (rescache),
// journaled job state and checkpoint-based resume across restarts.
//
// API surface (all JSON):
//
//	POST   /v1/jobs               submit a job        → 202 JobStatus, 400, 429 (+Retry-After), 503 draining
//	GET    /v1/jobs               list jobs           → 200 [JobStatus]
//	GET    /v1/jobs/{id}          job status          → 200 JobStatus, 404
//	GET    /v1/jobs/{id}/result   job output          → 200 bytes, 404, 409 until done
//	GET    /v1/jobs/{id}/stats    per-job resource attribution → 200 JobStats, 404
//	DELETE /v1/jobs/{id}          cancel              → 200 JobStatus, 404
//	GET    /v1/designs:evaluate   one design, synchronously → 200 explore.Metrics
//
// plus the telemetry observability endpoints (/metrics /healthz /statusz
// /debug/pprof) on the same listener.
package server

import (
	"fmt"
	"math"
	"strings"

	"voltstack/internal/core"
	"voltstack/internal/pdngrid"
)

// SchemaVersion identifies the job-request JSON layout and is folded into
// every cache key, so a schema change can never replay results recorded
// under different semantics. DESIGN.md §11 says what each bump changed.
const SchemaVersion = 2

// Job kinds.
const (
	KindExperiment = "experiment" // named drivers from the core registry
	KindSweep      = "sweep"      // an explore.Space design-space sweep
	KindEMMC       = "em-mc"      // EM lifetime closed-form vs. Monte Carlo
)

// JobRequest is the submission schema of POST /v1/jobs.
type JobRequest struct {
	// Kind selects the job type: "experiment", "sweep" or "em-mc".
	Kind string `json:"kind"`

	// Experiments names the drivers to run, in order, for an experiment
	// job (the vsexplore -exp set). The result is the concatenation of
	// their rendered outputs — byte-identical to vsexplore's stdout for
	// the same selection (minus its trailing timing line in text mode).
	Experiments []string `json:"experiments,omitempty"`
	// CSV selects the machine-readable rendering (fig3a/b, fig5a/b,
	// fig6, fig7, fig8 only).
	CSV bool `json:"csv,omitempty"`

	// Sweep configures a design-space sweep job.
	Sweep *SweepSpec `json:"sweep,omitempty"`

	// Trials is the Monte Carlo budget of an em-mc job.
	Trials int `json:"trials,omitempty"`

	// Coarse evaluates on a 16x16 PDN mesh instead of 32x32 (for a sweep
	// job this is the default grid; explicit grid_nx/grid_ny win).
	Coarse bool `json:"coarse,omitempty"`
	// Seed is the study RNG seed; 0 selects the default (1).
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the job's evaluation concurrency; 0 selects the
	// server default (GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// SweepSpec parameterizes the enumerated design space of a sweep job.
// Zero/absent fields select the paper's defaults (explore.DefaultSpace).
type SweepSpec struct {
	Layers int `json:"layers,omitempty"` // stack depth, default 8

	// Imbalance is the workload point for noise/efficiency, in [0,1];
	// absent selects the application average (0.65). A pointer so that an
	// explicit 0 is distinguishable from "use the default".
	Imbalance *float64 `json:"imbalance,omitempty"`

	PadFractions   []float64 `json:"pad_fractions,omitempty"`   // default 0.25, 0.5, 1.0
	ConverterCount []int     `json:"converter_count,omitempty"` // default 2, 4, 6, 8
	TSVs           []string  `json:"tsvs,omitempty"`            // of "dense", "sparse", "few"; default all three

	GridNx int `json:"grid_nx,omitempty"` // mesh columns; default 32 (16 with coarse)
	GridNy int `json:"grid_ny,omitempty"` // mesh rows; default GridNx
}

// tsvTopologies maps the wire names to the Table 2 design points.
var tsvTopologies = map[string]func() pdngrid.TSVTopology{
	"dense":  pdngrid.DenseTSV,
	"sparse": pdngrid.SparseTSV,
	"few":    pdngrid.FewTSV,
}

// FieldError is a validation failure naming the offending request field.
type FieldError struct {
	Field string
	Msg   string
}

func (e *FieldError) Error() string { return fmt.Sprintf("field %s: %s", e.Field, e.Msg) }

func fieldErr(field, format string, args ...any) error {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Normalize rewrites the request into its canonical effective form:
// names lowercased, every defaulted field made explicit. Two requests
// asking for the same evaluation therefore hash to the same cache key
// regardless of which defaults the caller spelled out. Call it before
// Validate.
func (r *JobRequest) Normalize() {
	r.Kind = strings.ToLower(strings.TrimSpace(r.Kind))
	for i, e := range r.Experiments {
		r.Experiments[i] = strings.ToLower(strings.TrimSpace(e))
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Kind == KindSweep && r.Sweep != nil {
		s := r.Sweep
		if s.Layers == 0 {
			s.Layers = 8
		}
		if s.Imbalance == nil {
			imb := 0.65
			s.Imbalance = &imb
		}
		if len(s.PadFractions) == 0 {
			s.PadFractions = []float64{0.25, 0.5, 1.0}
		}
		if len(s.ConverterCount) == 0 {
			s.ConverterCount = []int{2, 4, 6, 8}
		}
		if len(s.TSVs) == 0 {
			s.TSVs = []string{"dense", "sparse", "few"}
		}
		for i, n := range s.TSVs {
			s.TSVs[i] = strings.ToLower(strings.TrimSpace(n))
		}
		if s.GridNx == 0 {
			if r.Coarse {
				s.GridNx = 16
			} else {
				s.GridNx = 32
			}
		}
		if s.GridNy == 0 {
			s.GridNy = s.GridNx
		}
	}
}

// Validate checks a normalized request, returning a *FieldError naming
// the offending field. Every float is required to be finite: NaN and
// infinities are rejected here even when the request was constructed
// programmatically rather than decoded from JSON (which cannot carry
// them).
func (r *JobRequest) Validate() error {
	switch r.Kind {
	case KindExperiment:
		if len(r.Experiments) == 0 {
			return fieldErr("experiments", "an experiment job must name at least one experiment")
		}
		for _, name := range r.Experiments {
			if !core.IsExperiment(name) {
				return fieldErr("experiments", "unknown experiment %q (have: %s)",
					name, strings.Join(core.ExperimentNames(), " "))
			}
			if r.CSV && !core.HasCSV(name) {
				return fieldErr("csv", "experiment %q has no CSV form (have: %s)",
					name, strings.Join(core.CSVExperimentNames(), " "))
			}
		}
		if r.Sweep != nil {
			return fieldErr("sweep", "not allowed for an experiment job")
		}
		if r.Trials != 0 {
			return fieldErr("trials", "not allowed for an experiment job")
		}
	case KindSweep:
		if r.Sweep == nil {
			return fieldErr("sweep", "a sweep job needs a sweep spec")
		}
		if len(r.Experiments) != 0 {
			return fieldErr("experiments", "not allowed for a sweep job")
		}
		if r.Trials != 0 {
			return fieldErr("trials", "not allowed for a sweep job")
		}
		if err := r.Sweep.validate(); err != nil {
			return err
		}
	case KindEMMC:
		if r.Trials < 1 || r.Trials > 1_000_000 {
			return fieldErr("trials", "must be in [1, 1000000], got %d", r.Trials)
		}
		if len(r.Experiments) != 0 {
			return fieldErr("experiments", "not allowed for an em-mc job")
		}
		if r.Sweep != nil {
			return fieldErr("sweep", "not allowed for an em-mc job")
		}
	case "":
		return fieldErr("kind", "required (one of %s, %s, %s)", KindExperiment, KindSweep, KindEMMC)
	default:
		return fieldErr("kind", "unknown kind %q (one of %s, %s, %s)", r.Kind, KindExperiment, KindSweep, KindEMMC)
	}
	if r.Workers < 0 || r.Workers > 256 {
		return fieldErr("workers", "must be in [0, 256], got %d", r.Workers)
	}
	if r.Seed < 0 {
		return fieldErr("seed", "must be non-negative, got %d", r.Seed)
	}
	return nil
}

func (s *SweepSpec) validate() error {
	if s.Layers < 2 || s.Layers > 16 {
		return fieldErr("sweep.layers", "must be in [2, 16], got %d", s.Layers)
	}
	if s.Imbalance == nil || !isFinite(*s.Imbalance) || *s.Imbalance < 0 || *s.Imbalance > 1 {
		return fieldErr("sweep.imbalance", "must be a finite value in [0, 1]")
	}
	if len(s.PadFractions) > 16 {
		return fieldErr("sweep.pad_fractions", "at most 16 values, got %d", len(s.PadFractions))
	}
	for _, f := range s.PadFractions {
		if !isFinite(f) || f <= 0 || f > 1 {
			return fieldErr("sweep.pad_fractions", "every fraction must be a finite value in (0, 1], got %g", f)
		}
	}
	if len(s.ConverterCount) > 16 {
		return fieldErr("sweep.converter_count", "at most 16 values, got %d", len(s.ConverterCount))
	}
	for _, n := range s.ConverterCount {
		if n < 1 || n > 16 {
			return fieldErr("sweep.converter_count", "every count must be in [1, 16], got %d", n)
		}
	}
	if len(s.TSVs) > len(tsvTopologies) {
		return fieldErr("sweep.tsvs", "at most %d topologies, got %d", len(tsvTopologies), len(s.TSVs))
	}
	seen := map[string]bool{}
	for _, name := range s.TSVs {
		if _, ok := tsvTopologies[name]; !ok {
			return fieldErr("sweep.tsvs", "unknown TSV topology %q (have: dense sparse few)", name)
		}
		if seen[name] {
			return fieldErr("sweep.tsvs", "duplicate TSV topology %q", name)
		}
		seen[name] = true
	}
	if s.GridNx < 4 || s.GridNx > 256 {
		return fieldErr("sweep.grid_nx", "must be in [4, 256], got %d", s.GridNx)
	}
	if s.GridNy < 4 || s.GridNy > 256 {
		return fieldErr("sweep.grid_ny", "must be in [4, 256], got %d", s.GridNy)
	}
	return nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// JobState is the lifecycle of a job.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the status representation served for a job.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Kind  string   `json:"kind"`
	// Key is the job's content address in the result cache.
	Key string `json:"key"`
	// Completed/Total report checkpointed progress: experiment drivers
	// finished, sweep points evaluated, or 0/1 for em-mc.
	Completed int `json:"completed"`
	Total     int `json:"total"`
	// CacheHit marks a job whose result was served from the cache (or a
	// concurrent identical computation) without new model evaluations.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Resumed marks a job re-adopted from the journal after a restart.
	Resumed bool `json:"resumed,omitempty"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`

	CreatedAt  string `json:"created_at,omitempty"`  // RFC 3339
	StartedAt  string `json:"started_at,omitempty"`  // RFC 3339
	FinishedAt string `json:"finished_at,omitempty"` // RFC 3339

	ResultBytes int `json:"result_bytes,omitempty"`

	// TraceID is the job's 32-hex-char trace ID: the submitter's (when the
	// request carried a valid traceparent header) or a server-minted one.
	TraceID string `json:"trace_id,omitempty"`
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}
