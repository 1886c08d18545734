package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"voltstack/internal/floorplan"
	"voltstack/internal/parallel"
	"voltstack/internal/pdngrid"
	"voltstack/internal/sc"
	"voltstack/internal/spice"
	"voltstack/internal/thermal"
	"voltstack/internal/units"
	"voltstack/internal/workload"
)

// ---------------------------------------------------------------- Table 1

// ParamRow is one row of Table 1.
type ParamRow struct {
	Name  string
	Value string
}

// Table1 returns the PDN modeling parameters (the paper's Table 1).
func (s *Study) Table1() []ParamRow {
	p := s.Params
	um := func(v float64) string { return fmt.Sprintf("%.4g", v/units.Micrometer) }
	return []ParamRow{
		{"C4 Pad Pitch (um)", um(p.PadPitch)},
		{"C4 Pad Resistance (mOhm)", fmt.Sprintf("%.4g", p.PadR/units.Milliohm)},
		{"Minimum TSV Pitch (um)", um(p.TSVMinPitch)},
		{"TSV Diameter (um)", um(p.TSVDiameter)},
		{"Single TSV's Resistance (mOhm)", fmt.Sprintf("%.5g", p.TSVR/units.Milliohm)},
		{"TSV Keep-Out Zone's Side Length (um)", um(p.TSVKoZSide)},
		{"Package Resistance per Polarity (mOhm)", fmt.Sprintf("%.4g", p.PkgR/units.Milliohm)},
		{"On-chip Grid Segment Resistance (Ohm @32x32)", fmt.Sprintf("%.4g", p.GridRSeg)},
	}
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one TSV topology design point of Table 2.
type Table2Row struct {
	Name        string
	EffPitchUM  float64
	TSVsPerCore int
	OverheadPct float64
}

// Table2 returns the three TSV topologies with their computed area
// overheads.
func (s *Study) Table2() []Table2Row {
	var rows []Table2Row
	for _, t := range []pdngrid.TSVTopology{pdngrid.DenseTSV(), pdngrid.SparseTSV(), pdngrid.FewTSV()} {
		rows = append(rows, Table2Row{
			Name:        t.Name,
			EffPitchUM:  t.EffPitch / units.Micrometer,
			TSVsPerCore: t.PerCore,
			OverheadPct: 100 * t.AreaOverheadFrac(s.Chip.Core.Area, s.Params.TSVKoZSide),
		})
	}
	return rows
}

// ---------------------------------------------------------------- Fig. 3

// Fig3Point is one load point of the converter validation.
type Fig3Point struct {
	LoadMA      float64
	ModelEff    float64 // compact-model efficiency
	SimEff      float64 // switch-level simulation efficiency
	ModelDropMV float64 // compact-model output voltage drop
	SimDropMV   float64 // simulated drop below the ideal midpoint
}

// fig3 runs the validation at the given loads under the given control.
func (s *Study) fig3(ctrl sc.Control, loadsMA []float64) ([]Fig3Point, error) {
	const vin = 2.0 // two stacked 1 V loads
	var out []Fig3Point
	for _, mA := range loadsMA {
		il := mA * units.Milliampere
		op := sc.Evaluate(s.Converter, ctrl, vin, il)
		cell := spice.CellFromParams(s.Converter, vin)
		cell.FSw = ctrl.Freq(s.Converter, il)
		r, err := cell.Simulate(il, spice.SimOptions{})
		if err != nil {
			return nil, fmt.Errorf("core: fig3 at %g mA: %v", mA, err)
		}
		out = append(out, Fig3Point{
			LoadMA:      mA,
			ModelEff:    op.Efficiency,
			SimEff:      r.Efficiency,
			ModelDropMV: op.VDrop / units.Millivolt,
			SimDropMV:   (vin*s.Converter.Topo.Ratio - r.VOutAvg) / units.Millivolt,
		})
	}
	return out, nil
}

// Fig3a validates the closed-loop converter (efficiency vs. load,
// 1.6-100 mA).
func (s *Study) Fig3a() ([]Fig3Point, error) {
	return s.fig3(sc.ClosedLoop{}, []float64{1.6, 3.1, 6.3, 12.5, 25, 50, 100})
}

// Fig3b validates the open-loop converter (efficiency and output drop vs.
// load, 10-90 mA).
func (s *Study) Fig3b() ([]Fig3Point, error) {
	return s.fig3(sc.OpenLoop{}, []float64{10, 30, 50, 70, 90})
}

// ---------------------------------------------------------------- Fig. 5

// Fig5Series is one curve of an EM-lifetime figure: normalized lifetime
// per layer count.
type Fig5Series struct {
	Label  string
	Values []float64 // aligned with Layers
}

// Fig5 holds either panel of Fig. 5.
type Fig5 struct {
	Layers []int
	Series []Fig5Series
}

// Fig5a evaluates the normalized TSV EM-free MTTF vs. layer count for the
// regular PDN under the three TSV topologies and the V-S PDN with the Few
// topology. Pads are fully allocated to power (the paper's 32 Vdd pads
// per core). All values are normalized to the 2-layer V-S point.
func (s *Study) Fig5a() (*Fig5, error) {
	const padFrac = 1.0
	layers := s.scanLayers()
	type scenario struct {
		label  string
		config func(l int) pdngrid.Config
	}
	scenarios := []scenario{
		{"Reg. PDN, Dense TSV", func(l int) pdngrid.Config { return s.regularConfig(l, pdngrid.DenseTSV(), padFrac) }},
		{"Reg. PDN, Sparse TSV", func(l int) pdngrid.Config { return s.regularConfig(l, pdngrid.SparseTSV(), padFrac) }},
		{"Reg. PDN, Few TSV", func(l int) pdngrid.Config { return s.regularConfig(l, pdngrid.FewTSV(), padFrac) }},
		{"V-S PDN, Few TSV", func(l int) pdngrid.Config { return s.vsConfig(l, 4, pdngrid.FewTSV(), padFrac) }},
	}

	// Flatten the scenario × layer grid, plus the normalization base (the
	// 2-layer V-S point, which the memo shares with its series point) at
	// index 0, into independent tasks for the worker pool.
	tasks := []pdngrid.Config{scenarios[3].config(2)}
	for _, sc := range scenarios {
		for _, l := range layers {
			tasks = append(tasks, sc.config(l))
		}
	}
	lives, err := parallel.Map(context.Background(), s.pool(), tasks, func(_ int, cfg pdngrid.Config) (float64, error) {
		return s.uniformTSVLifetime(cfg)
	})
	if err != nil {
		return nil, err
	}
	base := lives[0]
	if err := checkPositive("fig5a base lifetime", base); err != nil {
		return nil, err
	}
	fig := &Fig5{Layers: layers}
	i := 1
	for _, sc := range scenarios {
		series := Fig5Series{Label: sc.label}
		for range layers {
			series.Values = append(series.Values, lives[i]/base)
			i++
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// Fig5b evaluates the normalized C4 EM-free MTTF vs. layer count for the
// regular PDN with 25/50/75/100 % power-pad allocations and the V-S PDN
// with 25 %. TSV topology is fixed (Few) since the C4 array's EM
// robustness is insensitive to it. Normalized to the 2-layer V-S point.
func (s *Study) Fig5b() (*Fig5, error) {
	layers := s.scanLayers()
	fracs := []float64{0.25, 0.5, 0.75, 1.0}

	// Flatten every series point, plus the normalization base (2-layer
	// V-S at 25 %, which the memo shares with its series point) at
	// index 0, into independent tasks.
	tasks := []pdngrid.Config{s.vsConfig(2, 4, pdngrid.FewTSV(), 0.25)}
	for _, frac := range fracs {
		for _, l := range layers {
			tasks = append(tasks, s.regularConfig(l, pdngrid.FewTSV(), frac))
		}
	}
	for _, l := range layers {
		tasks = append(tasks, s.vsConfig(l, 4, pdngrid.FewTSV(), 0.25))
	}
	lives, err := parallel.Map(context.Background(), s.pool(), tasks, func(_ int, cfg pdngrid.Config) (float64, error) {
		return s.uniformC4Lifetime(cfg)
	})
	if err != nil {
		return nil, err
	}
	vsBase := lives[0]
	if err := checkPositive("fig5b base lifetime", vsBase); err != nil {
		return nil, err
	}
	fig := &Fig5{Layers: layers}
	i := 1
	for _, frac := range fracs {
		series := Fig5Series{Label: fmt.Sprintf("Reg. PDN (%d%% Power C4)", int(frac*100))}
		for range layers {
			series.Values = append(series.Values, lives[i]/vsBase)
			i++
		}
		fig.Series = append(fig.Series, series)
	}
	series := Fig5Series{Label: "V-S PDN (25% Power C4)"}
	for range layers {
		series.Values = append(series.Values, lives[i]/vsBase)
		i++
	}
	fig.Series = append(fig.Series, series)
	return fig, nil
}

// ---------------------------------------------------------------- Fig. 6/8

// VSSweepPoint is one (converter count, imbalance) operating point of the
// 8-layer V-S PDN.
type VSSweepPoint struct {
	Imbalance  float64
	MaxIRPct   float64 // max on-chip IR drop, % Vdd
	Efficiency float64
	MaxConvMA  float64
	OverLimit  bool // converter current exceeds the 100 mA rating
}

// VSSweep sweeps workload imbalance for one converter allocation on the
// deepest stack. Each point is solved at most once per study; the points
// missing from the memo are solved concurrently on one PDN, built on the
// first miss (Solve never mutates it). The PDN's Solve.RHS is the sweep
// length, so Auto may factor it once for all of them.
//
// A point's value depends on the solver kind RHS picks, not on RHS: the
// memo key carries the kind, so sweeps of different lengths (Fig. 6,
// Fig. 8, Headlines) share every point they pick the same kind for.
func (s *Study) VSSweep(convPerCore int, imbalances []float64) ([]VSSweepPoint, error) {
	cfg := s.vsConfig(s.MaxLayers, convPerCore, pdngrid.FewTSV(), 0.5)
	fp := cfg.CacheFingerprint()
	cfg.Solve.RHS = len(imbalances)
	kind := cfg.SolverKind()
	build := sync.OnceValues(func() (*pdngrid.PDN, error) { return pdngrid.New(cfg) })
	return parallel.Map(context.Background(), s.pool(), imbalances, func(_ int, imb float64) (VSSweepPoint, error) {
		return memo(s, []any{"vs-sweep-point", fp, kind, "interleaved", imb}, func() (VSSweepPoint, error) {
			p, err := build()
			if err != nil {
				return VSSweepPoint{}, err
			}
			r, err := solveInterleaved(p, imb)
			if err != nil {
				return VSSweepPoint{}, err
			}
			return VSSweepPoint{
				Imbalance:  imb,
				MaxIRPct:   100 * r.MaxIRDropFrac,
				Efficiency: r.Efficiency,
				MaxConvMA:  r.MaxConverterCurrent / units.Milliampere,
				OverLimit:  r.OverLimit,
			}, nil
		})
	})
}

// Fig6 holds the voltage-noise evaluation of the 8-layer processor.
type Fig6 struct {
	Imbalances []float64
	// VS maps converters-per-core to IR-drop series; NaN marks points
	// dropped for exceeding the converter current limit.
	VS map[int][]float64
	// RegularIRPct are the horizontal reference lines (worst case: all
	// layers active) per TSV topology name.
	RegularIRPct map[string]float64
}

// Fig6ConvCounts is the converter allocation axis of Fig. 6 and Fig. 8.
var Fig6ConvCounts = []int{2, 4, 6, 8}

// Fig6 evaluates maximum on-chip IR drop vs. workload imbalance for the
// V-S PDN (Few TSV, 2-8 converters/core) against the regular PDN's
// worst-case lines for the three TSV topologies.
func (s *Study) Fig6() (*Fig6, error) {
	imbs := imbalanceAxis()
	fig := &Fig6{
		Imbalances:   imbs,
		VS:           map[int][]float64{},
		RegularIRPct: map[string]float64{},
	}
	for _, n := range Fig6ConvCounts {
		pts, err := s.VSSweep(n, imbs)
		if err != nil {
			return nil, err
		}
		series := make([]float64, len(pts))
		for i, pt := range pts {
			if pt.OverLimit {
				series[i] = math.NaN()
			} else {
				series[i] = pt.MaxIRPct
			}
		}
		fig.VS[n] = series
	}
	topos := []pdngrid.TSVTopology{pdngrid.DenseTSV(), pdngrid.SparseTSV(), pdngrid.FewTSV()}
	lines, err := parallel.Map(context.Background(), s.pool(), topos, func(_ int, tsv pdngrid.TSVTopology) (float64, error) {
		return s.uniformMaxIRPct(s.regularConfig(s.MaxLayers, tsv, 0.5))
	})
	if err != nil {
		return nil, err
	}
	for i, tsv := range topos {
		fig.RegularIRPct[tsv.Name] = lines[i]
	}
	return fig, nil
}

func imbalanceAxis() []float64 {
	var out []float64
	for i := 0; i <= 10; i++ {
		out = append(out, float64(i)/10)
	}
	return out
}

// Fig8 holds the power-efficiency evaluation.
type Fig8 struct {
	Imbalances []float64
	// VS maps converters-per-core to efficiency series (NaN when over
	// the converter limit).
	VS map[int][]float64
	// RegularSC is the baseline where converters supply all power in a
	// regular PDN (8 converters/core).
	RegularSC []float64
}

// Fig8 evaluates system power efficiency vs. imbalance for the V-S PDN at
// 2-8 converters per core and for the regular-PDN-with-SC baseline.
func (s *Study) Fig8() (*Fig8, error) {
	imbs := imbalanceAxis()[1:] // the paper's x-axis starts at 10%
	fig := &Fig8{Imbalances: imbs, VS: map[int][]float64{}}
	for _, n := range Fig6ConvCounts {
		pts, err := s.VSSweep(n, imbs)
		if err != nil {
			return nil, err
		}
		series := make([]float64, len(pts))
		for i, pt := range pts {
			if pt.OverLimit {
				series[i] = math.NaN()
			} else {
				series[i] = pt.Efficiency
			}
		}
		fig.VS[n] = series
	}
	baseCfg := pdngrid.Config{
		Kind:              pdngrid.Regular,
		Layers:            s.MaxLayers,
		Chip:              s.Chip,
		Params:            s.Params,
		TSV:               pdngrid.FewTSV(),
		PadPowerFraction:  0.5,
		ConvertersPerCore: 8,
		Converter:         s.Converter,
	}
	for _, imb := range imbs {
		eff, err := pdngrid.RegularSCEfficiency(baseCfg, imb)
		if err != nil {
			return nil, err
		}
		fig.RegularSC = append(fig.RegularSC, eff)
	}
	return fig, nil
}

// ---------------------------------------------------------------- Fig. 7

// Fig7Row is one application's box-plot row.
type Fig7Row struct {
	App          string
	Stats        workload.BoxStats
	MaxImbalance float64
}

// Fig7 holds the workload-imbalance study.
type Fig7 struct {
	Rows                []Fig7Row
	AverageMaxImbalance float64
	GlobalMaxImbalance  float64
	BestCaseApp         string
}

// Fig7 evaluates the synthetic Parsec populations.
func (s *Study) Fig7() *Fig7 {
	suite := s.Workloads()
	fig := &Fig7{
		AverageMaxImbalance: suite.AverageMaxImbalance(),
		GlobalMaxImbalance:  suite.GlobalMaxImbalance(),
		BestCaseApp:         suite.BestCaseApp().App.Name,
	}
	for _, p := range suite {
		fig.Rows = append(fig.Rows, Fig7Row{
			App:          p.App.Name,
			Stats:        p.Stats(),
			MaxImbalance: p.MaxImbalance(),
		})
	}
	return fig
}

// ---------------------------------------------------------------- thermal

// ThermalCheck reports the deepest air-cooled stack that stays below the
// 100 °C limit (the paper's Sec. 4.1 feasibility argument).
type ThermalCheck struct {
	MaxLayersUnder100C int
	HotspotAt8Layers   float64
}

// Thermal runs the stack feasibility check.
func (s *Study) Thermal() (*ThermalCheck, error) {
	die := s.Chip.Die()
	cfg := thermal.DefaultConfig(die, 8)
	fp, err := s.Chip.Floorplan()
	if err != nil {
		return nil, err
	}
	acts := make([]float64, s.Chip.NumCores())
	for i := range acts {
		acts[i] = 1
	}
	pm, err := s.Chip.PowerMap(acts)
	if err != nil {
		return nil, err
	}
	raster := floorplan.NewRaster(die, cfg.Nx, cfg.Ny)
	cells, err := raster.Distribute(fp.Blocks, pm)
	if err != nil {
		return nil, err
	}
	n, err := thermal.MaxLayersUnder(cfg, cells, 100, 16)
	if err != nil {
		return nil, err
	}
	maps := make([][]float64, 8)
	for i := range maps {
		maps[i] = cells
	}
	r8, err := thermal.Solve(cfg, maps)
	if err != nil {
		return nil, err
	}
	return &ThermalCheck{MaxLayersUnder100C: n, HotspotAt8Layers: r8.MaxC}, nil
}

// ---------------------------------------------------------------- headlines

// Headlines aggregates the paper's quantitative claims for verification.
type Headlines struct {
	// Fig. 5b: lifetime gap between V-S and regular C4 arrays at 8 layers.
	C4GapAt8Layers float64
	// Fig. 5a: fraction of TSV lifetime the regular Few-TSV PDN loses
	// going from 2 to 8 layers.
	RegTSVDegradation float64
	// Fig. 5a: same for the V-S PDN (should be small).
	VSTSVDegradation float64
	// Fig. 5a: 2-layer regular-to-V-S lifetime ratio (should exceed 1:
	// the through-via effect makes V-S worse at shallow stacks).
	TwoLayerRegOverVS float64
	// Fig. 6: V-S excess IR drop over the equal-area regular (Dense)
	// PDN at the application-average 65% imbalance, in % Vdd.
	DeltaIRAt65Pct float64
	// Fig. 6: largest imbalance at which the V-S PDN (8 conv/core) still
	// beats the regular Dense PDN.
	CrossoverImbalance float64
}

// Headlines computes the summary claims from the underlying experiments.
// Its four independent inputs — Fig. 5a, Fig. 5b, the fine-grained
// imbalance sweep and the dense-PDN reference line — run concurrently on
// the study's pool; each is itself deterministic, so so is the summary.
// They go through the study's memo, so after Fig. 5a, Fig. 5b and Fig. 6
// only the two sweep points off Fig. 6's axis (55 % and 65 %) are solved.
func (s *Study) Headlines() (*Headlines, error) {
	h := &Headlines{}

	// Fine-grained imbalance sweep for the crossover and the 65% delta.
	imbs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9, 1.0}
	var (
		f5a, f5b *Fig5
		pts      []VSSweepPoint
		dense    float64
	)
	err := parallel.Go(context.Background(), s.pool(),
		func() (err error) { f5a, err = s.Fig5a(); return },
		func() (err error) { f5b, err = s.Fig5b(); return },
		func() (err error) { pts, err = s.VSSweep(8, imbs); return },
		func() (err error) {
			dense, err = s.uniformMaxIRPct(s.regularConfig(s.MaxLayers, pdngrid.DenseTSV(), 0.5))
			return
		},
	)
	if err != nil {
		return nil, err
	}

	series := map[string][]float64{}
	for _, sr := range f5a.Series {
		series[sr.Label] = sr.Values
	}
	regFew := series["Reg. PDN, Few TSV"]
	vs := series["V-S PDN, Few TSV"]
	last := len(f5a.Layers) - 1
	h.RegTSVDegradation = 1 - regFew[last]/regFew[0]
	h.VSTSVDegradation = 1 - vs[last]/vs[0]
	h.TwoLayerRegOverVS = regFew[0] / vs[0]

	var reg25, vs25 []float64
	for _, sr := range f5b.Series {
		switch sr.Label {
		case "Reg. PDN (25% Power C4)":
			reg25 = sr.Values
		case "V-S PDN (25% Power C4)":
			vs25 = sr.Values
		}
	}
	h.C4GapAt8Layers = vs25[last] / reg25[last]

	h.CrossoverImbalance = 0
	for _, pt := range pts {
		if !pt.OverLimit && pt.MaxIRPct <= dense {
			h.CrossoverImbalance = pt.Imbalance
		}
		if pt.Imbalance == 0.65 {
			h.DeltaIRAt65Pct = pt.MaxIRPct - dense
		}
	}
	return h, nil
}
