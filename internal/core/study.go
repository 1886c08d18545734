// Package core is the paper's cross-layer design explorer: it ties the
// SC-converter compact model, the 3D PDN grid model, the EM lifetime
// model, the McPAT-like power model, the synthetic workload populations
// and the thermal model together into the experiments of the paper's
// evaluation — every table and figure has a driver here that regenerates
// its rows or series.
package core

import (
	"fmt"
	"sync"

	"voltstack/internal/em"
	"voltstack/internal/parallel"
	"voltstack/internal/pdngrid"
	"voltstack/internal/power"
	"voltstack/internal/rescache"
	"voltstack/internal/sc"
	"voltstack/internal/telemetry"
	"voltstack/internal/units"
	"voltstack/internal/workload"
)

// Study holds the shared configuration of a cross-layer exploration.
// NewStudy returns the paper's setup; fields may be overridden before
// running experiments (e.g. a coarser mesh for quick runs).
type Study struct {
	Chip      *power.Chip
	Params    pdngrid.Params
	Converter sc.Params
	EMTsv     em.BlackParams
	EMC4      em.BlackParams
	Seed      int64

	// MaxLayers is the deepest stack evaluated in the scaling studies.
	MaxLayers int

	// Workers bounds the number of PDN solves run concurrently by the
	// figure drivers; < 1 selects parallel.DefaultWorkers (GOMAXPROCS,
	// overridable via VOLTSTACK_WORKERS). Every experiment returns the
	// same values for every worker count.
	Workers int

	// Trace, when valid, annotates each experiment driver's trace span
	// with the request's W3C trace context, so a served job's driver spans
	// join the submitter's trace. The zero value (the default) leaves the
	// spans unannotated; results are identical either way.
	Trace telemetry.TraceContext

	// memo holds the small records derived from PDN solves, so that each
	// distinct point is solved once per study (see memo).
	memo memoTable
}

// NewStudy returns the paper's configuration: the 16-core A9-class layer,
// Table 1 parameters, the 28 nm push-pull converter with high-density
// (trench) capacitors for system-level area, and the calibrated EM
// constants.
func NewStudy() *Study {
	conv := sc.Default28nm()
	conv.Cap = sc.Trench // Sec. 5.2 assumes high-density capacitors
	return &Study{
		Chip:      power.Example16Core(),
		Params:    pdngrid.DefaultParams(),
		Converter: conv,
		EMTsv:     em.DefaultTSV(),
		EMC4:      em.DefaultC4(),
		Seed:      1,
		MaxLayers: 8,
	}
}

// pool returns the study's worker pool for figure-level fan-outs.
func (s *Study) pool() *parallel.Pool { return parallel.NewPool(s.Workers) }

// Coarse lowers the PDN mesh resolution for fast tests and smoke runs.
func (s *Study) Coarse() *Study {
	s.Params.GridNx, s.Params.GridNy = 16, 16
	return s
}

// RegularPDN builds a regular-PDN scenario.
func (s *Study) RegularPDN(layers int, tsv pdngrid.TSVTopology, padFrac float64) (*pdngrid.PDN, error) {
	return pdngrid.New(s.regularConfig(layers, tsv, padFrac))
}

// VoltageStackedPDN builds a V-S scenario with the study's converter.
func (s *Study) VoltageStackedPDN(layers, convPerCore int, tsv pdngrid.TSVTopology, padFrac float64) (*pdngrid.PDN, error) {
	return pdngrid.New(s.vsConfig(layers, convPerCore, tsv, padFrac))
}

func (s *Study) regularConfig(layers int, tsv pdngrid.TSVTopology, padFrac float64) pdngrid.Config {
	return pdngrid.Config{
		Kind:             pdngrid.Regular,
		Layers:           layers,
		Chip:             s.Chip,
		Params:           s.Params,
		TSV:              tsv,
		PadPowerFraction: padFrac,
	}
}

func (s *Study) vsConfig(layers, convPerCore int, tsv pdngrid.TSVTopology, padFrac float64) pdngrid.Config {
	return pdngrid.Config{
		Kind:              pdngrid.VoltageStacked,
		Layers:            layers,
		Chip:              s.Chip,
		Params:            s.Params,
		TSV:               tsv,
		PadPowerFraction:  padFrac,
		ConvertersPerCore: convPerCore,
		Converter:         s.Converter,
	}
}

// memoTable is a Study's single-flight memo. The zero value is ready to
// use.
type memoTable struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
}

type memoEntry struct {
	done chan struct{} // closed once val and err are set
	val  any
	err  error
}

// memo returns f's value for the content address of keyParts, calling f
// at most once per key and study: concurrent callers of a key wait for
// the first caller's result. A failed call is not kept, so the next
// caller retries.
//
// keyParts must hold everything the value depends on. For a PDN point
// that is rescache.Key(tag, cfg.CacheFingerprint(), activity pattern,
// derivation inputs), so a Study field changed between calls can never
// return a stale value. Values must stay small (a sweep point, a
// lifetime, an IR-drop line): the memo lives as long as the study, and a
// *pdngrid.Result would keep every node voltage alive with it. Because a
// reused engine gives the same bits as a cold one, which caller computes
// a point cannot change its value.
func memo[T any](s *Study, keyParts []any, f func() (T, error)) (T, error) {
	var zero T
	key, err := rescache.Key(keyParts...)
	if err != nil {
		return zero, err
	}
	t := &s.memo
	t.mu.Lock()
	if e, ok := t.entries[key]; ok {
		t.mu.Unlock()
		<-e.done
		if e.err != nil {
			return zero, e.err
		}
		return e.val.(T), nil
	}
	if t.entries == nil {
		t.entries = map[string]*memoEntry{}
	}
	e := &memoEntry{done: make(chan struct{})}
	t.entries[key] = e
	t.mu.Unlock()

	v, err := f()
	e.val, e.err = v, err
	if err != nil {
		t.mu.Lock()
		delete(t.entries, key)
		t.mu.Unlock()
	}
	close(e.done)
	return v, err
}

// uniformPoint solves cfg's scenario with every layer fully active, at
// most once per study and derivation, and returns derive's number from
// the result. tag names the derivation and in holds its inputs besides
// cfg.
func (s *Study) uniformPoint(cfg pdngrid.Config, tag string, in any, derive func(*pdngrid.Result) (float64, error)) (float64, error) {
	return memo(s, []any{tag, cfg.CacheFingerprint(), "uniform", in}, func() (float64, error) {
		p, err := pdngrid.New(cfg)
		if err != nil {
			return 0, err
		}
		r, err := solveUniform(p)
		if err != nil {
			return 0, err
		}
		return derive(r)
	})
}

// uniformTSVLifetime is the TSV-array lifetime of cfg's scenario at full
// activity. cfg carries the study's Params, so the key covers the
// temperature the lifetime is evaluated at.
func (s *Study) uniformTSVLifetime(cfg pdngrid.Config) (float64, error) {
	return s.uniformPoint(cfg, "tsv-lifetime", s.EMTsv, s.TSVLifetime)
}

// uniformC4Lifetime is the C4-array lifetime of cfg's scenario at full
// activity.
func (s *Study) uniformC4Lifetime(cfg pdngrid.Config) (float64, error) {
	return s.uniformPoint(cfg, "c4-lifetime", s.EMC4, s.C4Lifetime)
}

// uniformMaxIRPct is the max on-chip IR drop (% Vdd) of cfg's scenario
// at full activity: the regular PDN's worst-case line.
func (s *Study) uniformMaxIRPct(cfg pdngrid.Config) (float64, error) {
	return s.uniformPoint(cfg, "max-ir", nil, func(r *pdngrid.Result) (float64, error) {
		return 100 * r.MaxIRDropFrac, nil
	})
}

// TSVLifetime evaluates the expected EM-damage-free lifetime of a solved
// scenario's TSV array (Sec. 3.3).
func (s *Study) TSVLifetime(r *pdngrid.Result) (float64, error) {
	return s.lifetime(r.TSVCurrents, s.EMTsv)
}

// C4Lifetime evaluates the lifetime of the power C4 pad array.
func (s *Study) C4Lifetime(r *pdngrid.Result) (float64, error) {
	return s.lifetime(r.PadCurrents, s.EMC4)
}

// TSVLifetimeAt evaluates the TSV array lifetime with per-layer junction
// temperatures (°C) instead of the study's uniform temperature — the
// thermally-aware extension. layerTempsC[l] applies to conductors whose
// lower end is in layer l.
func (s *Study) TSVLifetimeAt(r *pdngrid.Result, layerTempsC []float64) (float64, error) {
	if err := s.EMTsv.Validate(); err != nil {
		return 0, err
	}
	if len(r.TSVLayers) != len(r.TSVCurrents) {
		return 0, fmt.Errorf("core: result lacks TSV layer tags (%d vs %d)",
			len(r.TSVLayers), len(r.TSVCurrents))
	}
	g := em.NewGroup(s.EMTsv.SigmaLog)
	for i, cur := range r.TSVCurrents {
		l := r.TSVLayers[i]
		if l < 0 || l >= len(layerTempsC) {
			return 0, fmt.Errorf("core: TSV layer %d outside temperature table", l)
		}
		g.AddConductor(s.EMTsv, cur, units.CelsiusToKelvin(layerTempsC[l]))
	}
	return g.MedianLifetime()
}

func (s *Study) lifetime(currents []float64, bp em.BlackParams) (float64, error) {
	if err := bp.Validate(); err != nil {
		return 0, err
	}
	g := em.NewGroup(bp.SigmaLog)
	tempK := units.CelsiusToKelvin(s.Params.TempCelsius)
	for _, i := range currents {
		g.AddConductor(bp, i, tempK)
	}
	return g.MedianLifetime()
}

// Workloads returns the study's synthetic Parsec suite.
func (s *Study) Workloads() workload.Suite {
	return workload.DefaultSuite(s.Seed)
}

// solveUniform runs a scenario with every layer fully active (the regular
// PDN's worst case and the EM-study operating point).
func solveUniform(p *pdngrid.PDN) (*pdngrid.Result, error) {
	return p.Solve(pdngrid.UniformActivities(p.Cfg.Layers, p.Cfg.Chip.NumCores(), 1))
}

// solveInterleaved runs a scenario with the Fig. 6 high/low layer pattern.
func solveInterleaved(p *pdngrid.PDN, imbalance float64) (*pdngrid.Result, error) {
	return p.Solve(pdngrid.InterleavedActivities(p.Cfg.Layers, p.Cfg.Chip.NumCores(), imbalance))
}

// scanLayers is the layer-count axis of Fig. 5.
func (s *Study) scanLayers() []int {
	var out []int
	for l := 2; l <= s.MaxLayers; l += 2 {
		out = append(out, l)
	}
	return out
}

func checkPositive(name string, v float64) error {
	if v <= 0 {
		return fmt.Errorf("core: %s must be positive, got %g", name, v)
	}
	return nil
}
