// Command emlife compares the EM-induced lifetime of the C4 pad and TSV
// arrays between a regular and a voltage-stacked PDN at one design point.
//
// Usage:
//
//	emlife [-layers N] [-tsv dense|sparse|few] [-padfrac F] [-grid N] [-workers N]
//	       [-mc-trials N] [-metrics PATH] [-trace PATH]
//	       [-cpuprofile PATH] [-manifest PATH] [-progress]
//
// The regular and voltage-stacked scenarios are solved concurrently.
// -mc-trials additionally cross-checks each analytic lifetime with the
// Monte Carlo estimator at the given trial budget.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"voltstack/internal/core"
	"voltstack/internal/em"
	"voltstack/internal/parallel"
	"voltstack/internal/pdngrid"
	"voltstack/internal/telemetry"
	"voltstack/internal/units"
)

func main() {
	layers := flag.Int("layers", 8, "number of stacked silicon layers")
	tsvName := flag.String("tsv", "few", "TSV topology: dense, sparse or few")
	padFrac := flag.Float64("padfrac", 0.25, "fraction of C4 pad sites used for power")
	grid := flag.Int("grid", 32, "PDN mesh resolution (NxN)")
	workers := flag.Int("workers", 0, "worker-pool size (0: GOMAXPROCS, or VOLTSTACK_WORKERS if set)")
	mcTrials := flag.Int("mc-trials", 0, "cross-check lifetimes by Monte Carlo with this many trials (0: analytic only)")
	tf := telemetry.RegisterFlags()
	flag.Parse()

	flush, err := tf.Init()
	if err != nil {
		fmt.Fprintln(os.Stderr, "emlife:", err)
		os.Exit(1)
	}
	// fail routes error exits through flush: os.Exit skips deferred calls,
	// and flush is what restores stdout, stops the CPU profile and writes the
	// manifest with the failure recorded.
	fail := func(code int, err error) {
		tf.RunManifest().SetExitError(err)
		flush()
		fmt.Fprintln(os.Stderr, "emlife:", err)
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

	s := core.NewStudy()
	s.Params.GridNx, s.Params.GridNy = *grid, *grid
	s.Workers = *workers
	tf.RunManifest().AddSeed("study", s.Seed)

	type point struct {
		name  string
		build func() (*pdngrid.PDN, error)
	}
	points := []point{
		{"regular", func() (*pdngrid.PDN, error) { return s.RegularPDN(*layers, tsv, *padFrac) }},
		{"voltage-stacked", func() (*pdngrid.PDN, error) { return s.VoltageStackedPDN(*layers, 4, tsv, *padFrac) }},
	}

	fmt.Printf("EM lifetime comparison: %d layers, %s TSV, %.0f%% power pads (all layers active)\n",
		*layers, tsv.Name, 100**padFrac)
	type res struct{ tsvLife, c4Life, tsvMC, c4MC float64 }
	mc := func(currents []float64, bp em.BlackParams) (float64, error) {
		if *mcTrials < 1 {
			return 0, nil
		}
		g := em.NewGroup(bp.SigmaLog)
		tempK := units.CelsiusToKelvin(s.Params.TempCelsius)
		for _, c := range currents {
			g.AddConductor(bp, c, tempK)
		}
		return g.SimulateMedianLifetimeWorkers(*mcTrials, s.Seed, *workers)
	}
	results, err := parallel.Map(context.Background(), parallel.NewPool(*workers), points, func(_ int, pt point) (res, error) {
		p, err := pt.build()
		if err != nil {
			return res{}, err
		}
		r, err := p.Solve(pdngrid.UniformActivities(*layers, s.Chip.NumCores(), 1))
		if err != nil {
			return res{}, err
		}
		tl, err := s.TSVLifetime(r)
		if err != nil {
			return res{}, err
		}
		cl, err := s.C4Lifetime(r)
		if err != nil {
			return res{}, err
		}
		tmc, err := mc(r.TSVCurrents, s.EMTsv)
		if err != nil {
			return res{}, err
		}
		cmc, err := mc(r.PadCurrents, s.EMC4)
		if err != nil {
			return res{}, err
		}
		return res{tl, cl, tmc, cmc}, nil
	})
	if err != nil {
		fail(1, err)
	}
	for i, pt := range points {
		fmt.Printf("  %-16s TSV-array lifetime %.3g, C4-array lifetime %.3g (arbitrary units)\n",
			pt.name, results[i].tsvLife, results[i].c4Life)
		if *mcTrials > 0 {
			fmt.Printf("  %-16s Monte Carlo (%d trials): TSV %.3g, C4 %.3g\n",
				"", *mcTrials, results[i].tsvMC, results[i].c4MC)
		}
	}
	reg, vs := results[0], results[1]
	fmt.Printf("  V-S advantage: TSV %.2fx, C4 %.2fx\n",
		vs.tsvLife/reg.tsvLife, vs.c4Life/reg.c4Life)
	if err := flush(); err != nil {
		fmt.Fprintln(os.Stderr, "emlife: telemetry:", err)
		os.Exit(1)
	}
}
