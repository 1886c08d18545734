// Command vsexplore regenerates every table and figure of the paper's
// evaluation in text form.
//
// Usage:
//
//	vsexplore [-exp all|table1|table2|fig3a|fig3b|fig5a|fig5b|fig6|fig7|fig8|thermal|headlines] [-coarse] [-workers N]
//	          [-metrics PATH] [-trace PATH]
//	          [-cpuprofile PATH] [-manifest PATH] [-progress]
//
// -coarse runs the PDN experiments on a 16x16 mesh (seconds instead of
// tens of seconds); headline numbers are stable across both resolutions.
//
// Independent experiments run concurrently, and each experiment's inner
// fan-out (scenario grids, imbalance sweeps, Monte Carlo trials) is
// parallel too; -workers (or VOLTSTACK_WORKERS) bounds the concurrency.
// Every number printed is identical for any worker count, and identical
// with any observability flag on or off (metrics, traces and progress go
// to files and stderr, never stdout).
//
// The experiment drivers live in the internal/core registry, which the
// evaluation service (cmd/vsserved) shares — a job submitted through
// cmd/vsctl renders the same bytes this command prints.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"voltstack/internal/core"
	"voltstack/internal/parallel"
	"voltstack/internal/telemetry"
)

func main() {
	csvOut := flag.Bool("csv", false, "emit CSV instead of text tables (fig3a/fig3b/fig5a/fig5b/fig6/fig7/fig8 only)")
	exp := flag.String("exp", "all", "comma-separated experiments to run (all, "+strings.Join(core.ExperimentNames(), ", ")+")")
	coarse := flag.Bool("coarse", false, "use a coarse 16x16 PDN mesh for speed")
	workers := flag.Int("workers", 0, "worker-pool size (0: GOMAXPROCS, or VOLTSTACK_WORKERS if set)")
	tf := telemetry.RegisterFlags()
	flag.Parse()

	flush, err := tf.Init()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsexplore:", err)
		os.Exit(1)
	}
	// fail routes error exits through flush: os.Exit skips deferred calls,
	// and flush is what restores stdout, stops the CPU profile and writes the
	// manifest with the failure recorded.
	fail := func(code int, err error) {
		tf.RunManifest().SetExitError(err)
		flush()
		fmt.Fprintln(os.Stderr, "vsexplore:", err)
		os.Exit(code)
	}

	s := core.NewStudy()
	if *coarse {
		s.Coarse()
	}
	s.Workers = *workers
	tf.RunManifest().AddSeed("study", s.Seed)

	order := core.ExperimentNames()
	var selected []string
	switch strings.ToLower(*exp) {
	case "all":
		selected = order
	default:
		for _, name := range strings.Split(strings.ToLower(*exp), ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !core.IsExperiment(name) {
				fail(2, fmt.Errorf("unknown experiment %q (have: all %s)", name, strings.Join(order, " ")))
			}
			selected = append(selected, name)
		}
		if len(selected) == 0 {
			fail(2, fmt.Errorf("-exp selected no experiments"))
		}
	}

	start := time.Now()
	if *csvOut {
		for _, name := range selected {
			if !core.HasCSV(name) {
				fail(2, fmt.Errorf("no CSV form for %q", name))
			}
		}
	}

	// Independent experiments run concurrently on the shared pool; the
	// rendered outputs come back in selection order, so stdout is
	// byte-identical to a serial run.
	prog := telemetry.NewProgress("experiments", len(selected))
	pool := parallel.NewPool(*workers)
	outputs, err := parallel.Map(context.Background(), pool, selected, func(_ int, name string) (string, error) {
		out, err := core.RunExperiment(s, name, *csvOut)
		if err != nil {
			return "", fmt.Errorf("%s: %v", name, err)
		}
		prog.Add(1)
		return out, nil
	})
	if err != nil {
		fail(1, err)
	}
	prog.Finish()
	for _, out := range outputs {
		fmt.Print(out)
		if !*csvOut {
			fmt.Println()
		}
	}
	if !*csvOut {
		fmt.Printf("done in %.1fs\n", time.Since(start).Seconds())
	}
	if err := flush(); err != nil {
		fmt.Fprintln(os.Stderr, "vsexplore: telemetry:", err)
		os.Exit(1)
	}
}
