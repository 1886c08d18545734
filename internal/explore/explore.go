// Package explore is the design-space exploration layer the paper's
// toolchain exists to enable: it enumerates PDN design scenarios (PDN
// kind, TSV topology, pad allocation, converter count), evaluates each
// one's cost/benefit metrics with the cross-layer models, and extracts
// the Pareto-efficient set.
package explore

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"time"

	"voltstack/internal/em"
	"voltstack/internal/parallel"
	"voltstack/internal/pdngrid"
	"voltstack/internal/power"
	"voltstack/internal/sc"
	"voltstack/internal/telemetry"
	"voltstack/internal/units"
)

// Sweep instrumentation: design points evaluated and sweep throughput.
// No-ops unless telemetry is enabled.
var (
	mPoints      = telemetry.NewCounter("explore_points_total")
	mEvalSeconds = telemetry.NewHistogram("explore_eval_seconds")
	mSweepRate   = telemetry.NewGauge("explore_points_per_second")
)

// Design is one point in the PDN design space.
type Design struct {
	Kind              pdngrid.Kind
	TSV               pdngrid.TSVTopology
	PadPowerFraction  float64
	ConvertersPerCore int // VoltageStacked only
}

// Name renders a short design label.
func (d Design) Name() string {
	if d.Kind == pdngrid.VoltageStacked {
		return fmt.Sprintf("V-S/%s/%dconv/%.0f%%pads", d.TSV.Name, d.ConvertersPerCore, 100*d.PadPowerFraction)
	}
	return fmt.Sprintf("Reg/%s/%.0f%%pads", d.TSV.Name, 100*d.PadPowerFraction)
}

// Metrics are the evaluated costs and benefits of a design.
type Metrics struct {
	Design Design

	AreaOverheadPct float64 // silicon cost per layer, % of layer area
	MaxIRDropPct    float64 // noise at the evaluation imbalance, % Vdd
	Efficiency      float64 // delivery efficiency at the evaluation point
	TSVLifetime     float64 // normalized EM lifetime of the TSV array
	C4Lifetime      float64 // normalized EM lifetime of the pad array
	OffChipCurrentA float64 // board-side current draw
	PowerPads       int     // C4 pads consumed for power (fewer frees I/O)
	Feasible        bool    // converter ratings respected
}

// Space describes the enumeration.
type Space struct {
	Layers    int
	Chip      *power.Chip
	Params    pdngrid.Params
	Converter sc.Params
	EMTsv     em.BlackParams
	EMC4      em.BlackParams

	// Imbalance is the workload point used for noise/efficiency (the
	// application average by default).
	Imbalance float64

	PadFractions   []float64
	ConverterCount []int
	TSVs           []pdngrid.TSVTopology

	// Workers bounds the number of designs evaluated concurrently by Run;
	// < 1 selects parallel.DefaultWorkers (GOMAXPROCS, overridable via
	// VOLTSTACK_WORKERS). Results are identical for every worker count.
	Workers int

	// OnPoint, when non-nil, is invoked once per design point as its
	// evaluation completes — with the point's index in Designs() order and
	// its raw (pre-normalization) metrics — so a caller can checkpoint
	// partial progress or report completed/total without polling. Points
	// supplied through Precomputed fire the callback too. Calls arrive
	// from worker goroutines concurrently and in completion order, not
	// index order; the callback must be safe for concurrent use. The
	// *Metrics handed over is the same object Run later normalizes in
	// place, so callers that retain it past Run must copy it first.
	OnPoint func(index int, m *Metrics)

	// Precomputed supplies already-evaluated raw metrics by design index
	// (a resume checkpoint or a result cache); Run uses an entry instead
	// of evaluating that design, bit-identically to having computed it.
	// Run mutates entries during lifetime normalization, so supply fresh
	// copies, not pointers shared with a cache.
	Precomputed map[int]*Metrics
}

// DefaultSpace enumerates the paper's axes at the application-average
// imbalance on the deepest stack.
func DefaultSpace() Space {
	conv := sc.Default28nm()
	conv.Cap = sc.Trench
	return Space{
		Layers:         8,
		Chip:           power.Example16Core(),
		Params:         pdngrid.DefaultParams(),
		Converter:      conv,
		EMTsv:          em.DefaultTSV(),
		EMC4:           em.DefaultC4(),
		Imbalance:      0.65,
		PadFractions:   []float64{0.25, 0.5, 1.0},
		ConverterCount: []int{2, 4, 6, 8},
		TSVs:           []pdngrid.TSVTopology{pdngrid.DenseTSV(), pdngrid.SparseTSV(), pdngrid.FewTSV()},
	}
}

// Designs enumerates every design point of the space.
func (s Space) Designs() []Design {
	var out []Design
	for _, tsv := range s.TSVs {
		for _, pf := range s.PadFractions {
			out = append(out, Design{Kind: pdngrid.Regular, TSV: tsv, PadPowerFraction: pf})
			for _, nc := range s.ConverterCount {
				out = append(out, Design{
					Kind:              pdngrid.VoltageStacked,
					TSV:               tsv,
					PadPowerFraction:  pf,
					ConvertersPerCore: nc,
				})
			}
		}
	}
	return out
}

// PDNConfig returns the PDN configuration that Evaluate solves for design
// d. Its CacheFingerprint is therefore the PDN part of a design point's
// cache key.
func (s Space) PDNConfig(d Design) pdngrid.Config {
	return pdngrid.Config{
		Kind:              d.Kind,
		Layers:            s.Layers,
		Chip:              s.Chip,
		Params:            s.Params,
		TSV:               d.TSV,
		PadPowerFraction:  d.PadPowerFraction,
		ConvertersPerCore: d.ConvertersPerCore,
		Converter:         s.Converter,
	}
}

// Evaluate computes the metrics of one design. Lifetimes are normalized
// by the caller (Run normalizes to the best value in the space). ctx
// carries the trace spans and per-job telemetry scope the solver layers
// annotate (see telemetry WithTraceContext/WithScope); it does not affect
// the computed metrics.
func (s Space) Evaluate(ctx context.Context, d Design) (*Metrics, error) {
	cfg := s.PDNConfig(d)
	p, err := pdngrid.New(cfg)
	if err != nil {
		return nil, err
	}
	cores := s.Chip.NumCores()
	// EM evaluation always uses the all-active point; V-S noise uses the
	// interleaved imbalance pattern. The two scenarios differ only in load
	// currents (RHS), so they go through one batched solve sharing a single
	// factorization — bit-identical to two serial Solve calls.
	var r, rEM *pdngrid.Result
	uniform := pdngrid.UniformActivities(s.Layers, cores, 1)
	if d.Kind == pdngrid.VoltageStacked {
		acts := pdngrid.InterleavedActivities(s.Layers, cores, s.Imbalance)
		rs, err := p.SolveBatchContext(ctx, [][][]float64{acts, uniform})
		if err != nil {
			return nil, err
		}
		r, rEM = rs[0], rs[1]
	} else {
		if r, err = p.SolveContext(ctx, uniform); err != nil { // worst case
			return nil, err
		}
		rEM = r
	}
	tempK := units.CelsiusToKelvin(s.Params.TempCelsius)
	life := func(currents []float64, bp em.BlackParams) (float64, error) {
		g := em.NewGroup(bp.SigmaLog)
		for _, c := range currents {
			g.AddConductor(bp, c, tempK)
		}
		return g.MedianLifetime()
	}
	tsvLife, err := life(rEM.TSVCurrents, s.EMTsv)
	if err != nil {
		return nil, err
	}
	c4Life, err := life(rEM.PadCurrents, s.EMC4)
	if err != nil {
		return nil, err
	}
	return &Metrics{
		Design:          d,
		AreaOverheadPct: 100 * p.AreaOverheadFrac(),
		MaxIRDropPct:    100 * r.MaxIRDropFrac,
		Efficiency:      r.Efficiency,
		TSVLifetime:     tsvLife,
		C4Lifetime:      c4Life,
		OffChipCurrentA: offChipCurrent(r, cfg),
		PowerPads:       p.NumPowerPads(),
		Feasible:        !r.OverLimit,
	}, nil
}

func offChipCurrent(r *pdngrid.Result, cfg pdngrid.Config) float64 {
	rail := cfg.Params.Vdd
	if cfg.Kind == pdngrid.VoltageStacked {
		rail *= float64(cfg.Layers)
	}
	return r.InputPower / rail
}

// Result is an evaluated design space.
type Result struct {
	Points []*Metrics // every feasible design, lifetimes normalized to the max
	// Pareto marks the Pareto-efficient subset of Points (indices).
	Pareto []int
	// Dropped counts designs discarded for violating converter ratings.
	Dropped int
}

// Run evaluates the whole space and extracts the Pareto set over
// (area↓, noise↓, efficiency↑, TSV lifetime↑, C4 lifetime↑, power pads↓ —
// the last being the paper's pads-freed-for-I/O argument).
//
// Designs are evaluated concurrently on a pool of s.Workers workers, but
// the result is deterministic: Points keeps the Designs() enumeration
// order and the Pareto set is byte-identical to a serial (Workers=1) run.
// A cancelled ctx stops dispatching design evaluations and returns the
// context's error.
func (s Space) Run(ctx context.Context) (*Result, error) {
	sp := telemetry.StartSpanCtx(ctx, "explore.Run")
	defer sp.End()
	scope := telemetry.ScopeFrom(ctx)
	designs := s.Designs()
	tRun := telemetry.Now()
	prog := telemetry.NewProgress("explore", len(designs))
	pool := parallel.NewPool(s.Workers)
	metrics, err := parallel.Map(ctx, pool, designs, func(i int, d Design) (*Metrics, error) {
		if m, ok := s.Precomputed[i]; ok && m != nil {
			prog.Add(1)
			scope.Counter("job_points_replayed_total").Add(1)
			if s.OnPoint != nil {
				s.OnPoint(i, m)
			}
			return m, nil
		}
		t0 := telemetry.Now()
		var tJob time.Time
		if scope != nil {
			tJob = time.Now()
		}
		m, err := s.Evaluate(ctx, d)
		if err != nil {
			return nil, fmt.Errorf("explore: %s: %v", d.Name(), err)
		}
		mPoints.Add(1)
		mEvalSeconds.Since(t0)
		if scope != nil {
			scope.Counter("job_points_total").Add(1)
			scope.Histogram("job_point_seconds").Observe(time.Since(tJob).Seconds())
		}
		prog.Add(1)
		if s.OnPoint != nil {
			s.OnPoint(i, m)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	prog.Finish()
	if !tRun.IsZero() {
		if dt := time.Since(tRun).Seconds(); dt > 0 {
			mSweepRate.Set(float64(len(designs)) / dt)
		}
	}
	res := &Result{}
	var maxTSV, maxC4 float64
	for _, m := range metrics {
		if !m.Feasible {
			res.Dropped++
			if telemetry.EventsEnabled() {
				telemetry.Event(slog.LevelWarn, "explore: design rejected (converter rating violated)",
					slog.String("design", m.Design.Name()),
					slog.Float64("max_ir_drop_pct", m.MaxIRDropPct))
			}
			continue
		}
		res.Points = append(res.Points, m)
		maxTSV = math.Max(maxTSV, m.TSVLifetime)
		maxC4 = math.Max(maxC4, m.C4Lifetime)
	}
	for _, m := range res.Points {
		if maxTSV > 0 {
			m.TSVLifetime /= maxTSV
		}
		if maxC4 > 0 {
			m.C4Lifetime /= maxC4
		}
	}
	res.Pareto = paretoSet(res.Points)
	return res, nil
}

// dominates reports whether a is at least as good as b on every objective
// and strictly better on at least one.
func dominates(a, b *Metrics) bool {
	geq := a.AreaOverheadPct <= b.AreaOverheadPct &&
		a.MaxIRDropPct <= b.MaxIRDropPct &&
		a.Efficiency >= b.Efficiency &&
		a.TSVLifetime >= b.TSVLifetime &&
		a.C4Lifetime >= b.C4Lifetime &&
		a.PowerPads <= b.PowerPads
	if !geq {
		return false
	}
	return a.AreaOverheadPct < b.AreaOverheadPct ||
		a.MaxIRDropPct < b.MaxIRDropPct ||
		a.Efficiency > b.Efficiency ||
		a.TSVLifetime > b.TSVLifetime ||
		a.C4Lifetime > b.C4Lifetime ||
		a.PowerPads < b.PowerPads
}

func paretoSet(points []*Metrics) []int {
	var out []int
	for i, a := range points {
		dominated := false
		for j, b := range points {
			if i != j && dominates(b, a) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(x, y int) bool {
		return points[out[x]].AreaOverheadPct < points[out[y]].AreaOverheadPct
	})
	return out
}
