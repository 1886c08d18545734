// Command vsdse runs the cross-layer design-space exploration: every
// combination of PDN kind, TSV topology, pad allocation and converter
// count is evaluated for area, noise, efficiency, EM lifetime and
// off-chip current, and the Pareto-efficient designs are reported.
//
// Usage:
//
//	vsdse [-layers N] [-imbalance F] [-grid N] [-all]
//	      [-metrics PATH] [-trace PATH]
//	      [-cpuprofile PATH] [-manifest PATH] [-progress]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"voltstack/internal/explore"
	"voltstack/internal/telemetry"
)

func main() {
	layers := flag.Int("layers", 8, "number of stacked silicon layers")
	imbalance := flag.Float64("imbalance", 0.65, "workload imbalance for the noise/efficiency metrics")
	grid := flag.Int("grid", 16, "PDN mesh resolution (NxN)")
	all := flag.Bool("all", false, "print every feasible design, not only the Pareto set")
	workers := flag.Int("workers", 0, "worker-pool size (0: GOMAXPROCS, or VOLTSTACK_WORKERS if set)")
	tf := telemetry.RegisterFlags()
	flag.Parse()

	flush, err := tf.Init()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsdse:", err)
		os.Exit(1)
	}
	// fail routes error exits through flush: os.Exit skips deferred calls,
	// and flush is what restores stdout, stops the CPU profile and writes the
	// manifest with the failure recorded.
	fail := func(code int, err error) {
		tf.RunManifest().SetExitError(err)
		flush()
		fmt.Fprintln(os.Stderr, "vsdse:", err)
		os.Exit(code)
	}

	space := explore.DefaultSpace()
	space.Layers = *layers
	space.Imbalance = *imbalance
	space.Params.GridNx, space.Params.GridNy = *grid, *grid
	space.Workers = *workers

	start := time.Now()
	res, err := space.Run(context.Background())
	if err != nil {
		fail(1, err)
	}

	fmt.Printf("design space: %d layers, %.0f%% imbalance, %d designs evaluated (%d infeasible dropped)\n",
		*layers, 100**imbalance, len(res.Points)+res.Dropped, res.Dropped)
	fmt.Println()
	header := fmt.Sprintf("%-26s %8s %9s %6s %8s %8s %9s %6s",
		"design", "area%", "noise%Vdd", "eff%", "TSVlife", "C4life", "Iboard(A)", "pads")

	inPareto := map[int]bool{}
	for _, pi := range res.Pareto {
		inPareto[pi] = true
	}

	fmt.Println("Pareto-efficient designs (area↓ noise↓ eff↑ lifetimes↑):")
	fmt.Println(header)
	for _, pi := range res.Pareto {
		printRow(res.Points[pi])
	}

	if *all {
		fmt.Println()
		fmt.Println("dominated designs:")
		fmt.Println(header)
		for i, m := range res.Points {
			if !inPareto[i] {
				printRow(m)
			}
		}
	}
	fmt.Printf("\ndone in %.1fs\n", time.Since(start).Seconds())
	if err := flush(); err != nil {
		fmt.Fprintln(os.Stderr, "vsdse: telemetry:", err)
		os.Exit(1)
	}
}

func printRow(m *explore.Metrics) {
	fmt.Printf("%-26s %8.1f %9.2f %6.1f %8.2f %8.2f %9.2f %6d\n",
		m.Design.Name(), m.AreaOverheadPct, m.MaxIRDropPct,
		100*m.Efficiency, m.TSVLifetime, m.C4Lifetime, m.OffChipCurrentA, m.PowerPads)
}
