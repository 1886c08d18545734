// Command vsim solves one 3D-IC PDN scenario and reports voltage noise,
// converter state, power efficiency and conductor current statistics.
//
// Usage:
//
//	vsim [-kind regular|vs] [-layers N] [-tsv dense|sparse|few]
//	     [-conv N] [-padfrac F] [-imbalance F] [-grid N]
//	     [-metrics PATH] [-trace PATH]
//	     [-cpuprofile PATH] [-manifest PATH] [-progress]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"voltstack/internal/pdngrid"
	"voltstack/internal/power"
	"voltstack/internal/sc"
	"voltstack/internal/telemetry"
	"voltstack/internal/viz"
)

func main() {
	kind := flag.String("kind", "vs", "PDN kind: regular or vs (voltage-stacked)")
	layers := flag.Int("layers", 8, "number of stacked silicon layers")
	tsvName := flag.String("tsv", "few", "TSV topology: dense, sparse or few")
	conv := flag.Int("conv", 8, "SC converters per core per intermediate rail (V-S only)")
	padFrac := flag.Float64("padfrac", 0.5, "fraction of C4 pad sites used for power")
	imbalance := flag.Float64("imbalance", 0.65, "interleaved high/low workload imbalance (0..1)")
	grid := flag.Int("grid", 32, "PDN mesh resolution (NxN)")
	showMap := flag.Bool("map", false, "print an ASCII voltage heatmap of the worst layer")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON summary instead of text")
	tf := telemetry.RegisterFlags()
	flag.Parse()

	flush, err := tf.Init()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsim:", err)
		os.Exit(1)
	}
	defer func() {
		if err := flush(); err != nil {
			fmt.Fprintln(os.Stderr, "vsim: telemetry:", err)
		}
	}()
	// fail routes error exits through flush: os.Exit skips deferred calls,
	// and flush is what restores stdout, stops the CPU profile and writes the
	// manifest with the failure recorded.
	fail := func(code int, err error) {
		tf.RunManifest().SetExitError(err)
		flush()
		fmt.Fprintln(os.Stderr, "vsim:", err)
		os.Exit(code)
	}

	var tsv pdngrid.TSVTopology
	switch strings.ToLower(*tsvName) {
	case "dense":
		tsv = pdngrid.DenseTSV()
	case "sparse":
		tsv = pdngrid.SparseTSV()
	case "few":
		tsv = pdngrid.FewTSV()
	default:
		fail(2, fmt.Errorf("unknown TSV topology %q", *tsvName))
	}

	params := pdngrid.DefaultParams()
	params.GridNx, params.GridNy = *grid, *grid
	converter := sc.Default28nm()
	converter.Cap = sc.Trench

	cfg := pdngrid.Config{
		Layers:            *layers,
		Chip:              power.Example16Core(),
		Params:            params,
		TSV:               tsv,
		PadPowerFraction:  *padFrac,
		ConvertersPerCore: *conv,
		Converter:         converter,
	}
	switch strings.ToLower(*kind) {
	case "regular":
		cfg.Kind = pdngrid.Regular
		cfg.ConvertersPerCore = 0
	case "vs", "voltage-stacked":
		cfg.Kind = pdngrid.VoltageStacked
	default:
		fail(2, fmt.Errorf("unknown kind %q", *kind))
	}

	p, err := pdngrid.New(cfg)
	if err != nil {
		fail(1, err)
	}

	cores := cfg.Chip.NumCores()
	var acts [][]float64
	if cfg.Kind == pdngrid.VoltageStacked {
		acts = pdngrid.InterleavedActivities(*layers, cores, *imbalance)
	} else {
		acts = pdngrid.UniformActivities(*layers, cores, 1) // regular worst case
	}
	r, err := p.Solve(acts)
	if err != nil {
		fail(1, err)
	}

	if *jsonOut {
		summary := map[string]interface{}{
			"kind":                cfg.Kind.String(),
			"layers":              *layers,
			"tsv_topology":        tsv.Name,
			"pad_power_fraction":  *padFrac,
			"converters_per_core": cfg.ConvertersPerCore,
			"imbalance":           *imbalance,
			"power_pads":          p.NumPowerPads(),
			"vdd_pads":            p.NumVddPads(),
			"tsvs_per_boundary":   p.NumTSVsPerBoundary(),
			"area_overhead_frac":  p.AreaOverheadFrac(),
			"max_ir_drop_frac":    r.MaxIRDropFrac,
			"max_rise_frac":       r.MaxRiseFrac,
			"worst_layer":         r.WorstLayer,
			"input_power_w":       r.InputPower,
			"load_power_w":        r.LoadPower,
			"converter_loss_w":    r.ConverterLoss,
			"wire_loss_w":         r.WireLoss,
			"efficiency":          r.Efficiency,
			"max_converter_a":     r.MaxConverterCurrent,
			"over_limit":          r.OverLimit,
			"solver_iterations":   r.SolverIterations,
			"solver_residual":     r.SolverResidual,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			fail(1, err)
		}
		return
	}

	fmt.Printf("scenario: %s PDN, %d layers, %s TSV, %.0f%% power pads\n",
		cfg.Kind, *layers, tsv.Name, 100**padFrac)
	if cfg.Kind == pdngrid.VoltageStacked {
		fmt.Printf("          %d converters/core/rail, interleaved imbalance %.0f%%\n",
			*conv, 100**imbalance)
	}
	fmt.Printf("power pads: %d (%d Vdd), TSVs/boundary: %d, PDN area overhead: %.1f%% of each layer\n",
		p.NumPowerPads(), p.NumVddPads(), p.NumTSVsPerBoundary(), 100*p.AreaOverheadFrac())
	fmt.Printf("max IR drop: %.2f%% Vdd (worst layer %d); max rise: %.2f%% Vdd\n",
		100*r.MaxIRDropFrac, r.WorstLayer, 100*r.MaxRiseFrac)
	fmt.Printf("power: in %.2f W, loads %.2f W, converters %.2f W, wires %.2f W -> efficiency %.1f%%\n",
		r.InputPower, r.LoadPower, r.ConverterLoss, r.WireLoss, 100*r.Efficiency)
	if cfg.Kind == pdngrid.VoltageStacked {
		fmt.Printf("converters: %d total, max |J| = %.1f mA (limit %.0f mA, over: %v)\n",
			p.ConverterCount(), 1000*r.MaxConverterCurrent, 1000*converter.MaxLoad, r.OverLimit)
	}
	fmt.Printf("pad currents (mA):  %s\n", statLine(r.PadCurrents))
	fmt.Printf("TSV currents (mA):  %s\n", statLine(r.TSVCurrents))
	if r.SolverIterations > 0 {
		fmt.Printf("solver: %d PCG iterations (residual %.2e)\n",
			r.SolverIterations, r.SolverResidual)
	}

	if *showMap {
		cv := r.CellVoltages[r.WorstLayer]
		lo, mean, hi := viz.Stats(cv)
		fmt.Printf("\nsupply-voltage map, layer %d (min %.4f V, mean %.4f V, max %.4f V):\n",
			r.WorstLayer, lo, mean, hi)
		fmt.Print(viz.Heatmap(cv, *grid, *grid, viz.Options{FlipY: true, ShowScale: true}))
	}
}

func statLine(v []float64) string {
	if len(v) == 0 {
		return "none"
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f max=%.2f",
		len(s), 1000*sum/float64(len(s)), 1000*q(0.5), 1000*q(0.95), 1000*s[len(s)-1])
}
