// Command vsctl is the client for the vsserved evaluation daemon.
//
// Usage:
//
//	vsctl [-addr URL] [-poll D] <command> [flags]
//
// Commands:
//
//	submit    submit a job, print its accepted status JSON
//	status    print a job's status JSON              (vsctl status <id>)
//	result    write a done job's output to stdout    (vsctl result <id>)
//	wait      poll until terminal, print status JSON (vsctl wait <id>)
//	cancel    request cancellation, print status     (vsctl cancel <id>)
//	list      print every job's status JSON
//	run       submit + wait + result in one step
//	evaluate  evaluate a single design synchronously
//	stats     print a job's resource-attribution JSON (vsctl stats <id>)
//	health    render a job's solver-health report     (vsctl health <id>)
//	top       rank all jobs by attributed CPU time
//
// Every invocation mints a W3C trace context and sends it as a
// traceparent header, so a vsserved running with -trace records the
// client's requests, the queue wait and the nested solver spans under
// one trace ID (see the trace_id field of status and stats output).
//
// Job requests come either from -f FILE (raw JSON, "-" for stdin) or
// from flags mirroring cmd/vsexplore:
//
//	vsctl run -exp fig5a -csv -coarse      # byte-identical to: vsexplore -exp fig5a -csv -coarse
//	vsctl run -exp table1,table2 -coarse   # vsexplore's stdout minus its timing line
//	vsctl run -sweep -layers 8 -grid 16    # design-space sweep, canonical-JSON result
//	vsctl run -trials 4000                 # EM Monte Carlo cross-check
//
// The daemon caches by content address, so re-running an identical
// request returns the cached bytes without solver work (see the
// cache_hit field of the status).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"voltstack/internal/server"
	"voltstack/internal/telemetry"
)

func main() {
	addr := flag.String("addr", defaultAddr(), "vsserved base URL (or VSSERVED_ADDR)")
	poll := flag.Duration("poll", 200*time.Millisecond, "initial status polling delay for wait/run (grows exponentially)")
	pollMax := flag.Duration("poll-max", 5*time.Second, "polling delay cap")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	c := &server.Client{
		Base:    *addr,
		Backoff: server.Backoff{Initial: *poll, Max: *pollMax},
		Trace:   telemetry.NewTrace(),
	}
	ctx := context.Background()
	cmd, args := flag.Arg(0), flag.Args()[1:]

	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(ctx, c, args, false)
	case "run":
		err = cmdSubmit(ctx, c, args, true)
	case "status":
		err = withJobID(args, func(id string) error {
			st, err := c.Status(ctx, id)
			return printStatus(st, err)
		})
	case "wait":
		err = withJobID(args, func(id string) error {
			st, err := c.Wait(ctx, id)
			return printStatus(st, err)
		})
	case "cancel":
		err = withJobID(args, func(id string) error {
			st, err := c.Cancel(ctx, id)
			return printStatus(st, err)
		})
	case "result":
		err = withJobID(args, func(id string) error {
			res, err := c.Result(ctx, id)
			if err != nil {
				return err
			}
			_, err = os.Stdout.Write(res)
			return err
		})
	case "list":
		var jobs []server.JobStatus
		if jobs, err = c.List(ctx); err == nil {
			err = printJSON(jobs)
		}
	case "evaluate":
		err = cmdEvaluate(ctx, c, args)
	case "stats":
		err = withJobID(args, func(id string) error {
			b, err := c.Stats(ctx, id)
			if err != nil {
				return err
			}
			_, err = os.Stdout.Write(b)
			return err
		})
	case "health":
		err = withJobID(args, func(id string) error { return cmdHealth(ctx, c, id) })
	case "top":
		err = cmdTop(ctx, c)
	default:
		fmt.Fprintf(os.Stderr, "vsctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: vsctl [-addr URL] [-poll D] <command> [flags]

commands:
  submit [job flags]    submit a job, print its status JSON
  run    [job flags]    submit, wait, write the result to stdout
  status <id>           print a job's status JSON
  wait   <id>           poll until the job is terminal, print its status
  result <id>           write a done job's output to stdout
  cancel <id>           request cancellation
  list                  print every job's status JSON
  evaluate [flags]      evaluate one design synchronously
  stats  <id>           print a job's resource-attribution JSON
  health <id>           render a job's solver-health report (condition
                        estimate, residual curve, detector verdicts)
  top                   rank all jobs by attributed CPU time

job flags (submit/run):
  -f FILE               raw request JSON ("-": stdin); overrides the rest
  -exp LIST             experiment job: comma-separated experiment names
  -csv                  CSV rendering (experiment job)
  -sweep                design-space sweep job
  -layers N -imbalance X -pads LIST -converters LIST -tsvs LIST -grid N
                        sweep axes (defaults: the paper's space)
  -trials N             EM Monte Carlo job
  -coarse -seed N -workers N
                        study knobs, as in vsexplore
`)
	flag.PrintDefaults()
}

func defaultAddr() string {
	if v := os.Getenv("VSSERVED_ADDR"); v != "" {
		return v
	}
	return "http://localhost:8324"
}

func withJobID(args []string, f func(id string) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one job id, got %d arguments", len(args))
	}
	return f(args[0])
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func printStatus(st server.JobStatus, err error) error {
	if err != nil {
		return err
	}
	return printJSON(st)
}

func cmdSubmit(ctx context.Context, c *server.Client, args []string, wait bool) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	file := fs.String("f", "", "read the request JSON from this file (\"-\": stdin)")
	exp := fs.String("exp", "", "comma-separated experiments (experiment job)")
	csv := fs.Bool("csv", false, "CSV rendering (experiment job)")
	sweep := fs.Bool("sweep", false, "design-space sweep job")
	layers := fs.Int("layers", 0, "sweep: stack depth (0: 8)")
	imbalance := fs.Float64("imbalance", -1, "sweep: workload imbalance in [0,1] (-1: 0.65)")
	pads := fs.String("pads", "", "sweep: comma-separated pad power fractions")
	converters := fs.String("converters", "", "sweep: comma-separated converters-per-core counts")
	tsvs := fs.String("tsvs", "", "sweep: comma-separated TSV topologies (dense,sparse,few)")
	grid := fs.Int("grid", 0, "sweep: PDN mesh resolution NxN (0: 32, 16 with -coarse)")
	trials := fs.Int("trials", 0, "EM Monte Carlo job: trial count")
	coarse := fs.Bool("coarse", false, "coarse 16x16 PDN mesh")
	seed := fs.Int64("seed", 0, "study RNG seed (0: 1)")
	workers := fs.Int("workers", 0, "evaluation concurrency (0: server default)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments after job flags: %v", fs.Args())
	}

	var req server.JobRequest
	if *file != "" {
		r := io.Reader(os.Stdin)
		if *file != "-" {
			f, err := os.Open(*file)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		p, err := server.DecodeJobRequest(r)
		if err != nil {
			return err
		}
		req = *p
	} else {
		req = server.JobRequest{Coarse: *coarse, Seed: *seed, Workers: *workers}
		switch {
		case *exp != "":
			req.Kind = server.KindExperiment
			for _, name := range strings.Split(*exp, ",") {
				if name = strings.TrimSpace(name); name != "" {
					req.Experiments = append(req.Experiments, name)
				}
			}
			req.CSV = *csv
		case *sweep:
			req.Kind = server.KindSweep
			spec := &server.SweepSpec{Layers: *layers, GridNx: *grid}
			if *imbalance >= 0 {
				imb := *imbalance
				spec.Imbalance = &imb
			}
			var err error
			if spec.PadFractions, err = parseFloats(*pads); err != nil {
				return fmt.Errorf("-pads: %v", err)
			}
			if spec.ConverterCount, err = parseInts(*converters); err != nil {
				return fmt.Errorf("-converters: %v", err)
			}
			if *tsvs != "" {
				spec.TSVs = splitList(*tsvs)
			}
			req.Sweep = spec
		case *trials > 0:
			req.Kind = server.KindEMMC
			req.Trials = *trials
		default:
			return fmt.Errorf("nothing to submit: use -exp, -sweep, -trials or -f (see vsctl -h)")
		}
	}

	if !wait {
		st, err := c.Submit(ctx, req)
		return printStatus(st, err)
	}
	res, st, err := c.Run(ctx, req)
	if err != nil {
		return err
	}
	if st.CacheHit {
		fmt.Fprintf(os.Stderr, "vsctl: job %s served from cache\n", st.ID)
	}
	_, err = os.Stdout.Write(res)
	return err
}

func cmdEvaluate(ctx context.Context, c *server.Client, args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	kind := fs.String("kind", "regular", "PDN kind: regular or vs")
	layers := fs.Int("layers", 8, "stack depth")
	tsv := fs.String("tsv", "dense", "TSV topology: dense, sparse or few")
	padFraction := fs.Float64("pad-fraction", 0.5, "power-pad fraction in (0,1]")
	converters := fs.Int("converters", 4, "converters per core (vs only)")
	imbalance := fs.Float64("imbalance", 0.65, "workload imbalance in [0,1]")
	grid := fs.Int("grid", 16, "PDN mesh resolution NxN")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	q := url.Values{}
	q.Set("kind", *kind)
	q.Set("layers", strconv.Itoa(*layers))
	q.Set("tsv", *tsv)
	q.Set("pad_fraction", strconv.FormatFloat(*padFraction, 'g', -1, 64))
	q.Set("converters", strconv.Itoa(*converters))
	q.Set("imbalance", strconv.FormatFloat(*imbalance, 'g', -1, 64))
	q.Set("grid", strconv.Itoa(*grid))
	out, err := c.Evaluate(ctx, q)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(out, '\n'))
	return err
}

// cmdHealth renders a job's solver-health report from its stats document:
// the job-scoped convergence instruments (condition estimate, per-iteration
// reduction factor, detector trip counts) and the residual curve of the
// slowest probed solve, drawn on a log scale. It needs nothing beyond what
// GET /v1/jobs/{id}/stats already serves, so it works on frozen terminal
// documents across daemon restarts too.
func cmdHealth(ctx context.Context, c *server.Client, id string) error {
	b, err := c.Stats(ctx, id)
	if err != nil {
		return err
	}
	var st server.JobStats
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("stats %s: %v", id, err)
	}
	counter := func(name string) int64 { return st.Registry.Counters[name] }
	gauge := func(name string) (float64, bool) {
		v, ok := st.Registry.Gauges[name]
		return v, ok
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintf(w, "job\t%s (%s, %s)\n", st.ID, st.Kind, st.State)
	fmt.Fprintf(w, "solves\t%d PDN solves, %d probed, %d total iterations\n",
		counter("job_pdn_solves_total"), counter("job_health_reports_total"),
		counter("job_solver_iterations_total"))
	if probed := counter("job_health_reports_total"); probed == 0 {
		fmt.Fprintf(w, "health\tno probed solves recorded (run vsserved with convergence probes; older jobs predate them)\n")
		return w.Flush()
	}
	if cond, ok := gauge("job_health_cond_estimate"); ok && cond > 0 {
		lmin, _ := gauge("job_health_lambda_min")
		lmax, _ := gauge("job_health_lambda_max")
		fmt.Fprintf(w, "conditioning\tcond(M^-1 A) ~ %.4g  (lambda in [%.4g, %.4g], last probed solve)\n", cond, lmin, lmax)
	} else {
		fmt.Fprintf(w, "conditioning\tno estimate (solves converged before the Lanczos window filled)\n")
	}
	if rf, ok := gauge("job_health_reduction_factor"); ok && rf > 0 {
		fmt.Fprintf(w, "reduction\tresidual x%.4g per iteration (geometric mean, last probed solve)\n", rf)
	}
	verdict := func(name string) string {
		if n := counter(name); n > 0 {
			return fmt.Sprintf("TRIPPED x%d", n)
		}
		return "ok"
	}
	fmt.Fprintf(w, "detectors\tstagnation %s\tplateau %s\tprecond-degradation %s\n",
		verdict("job_health_stagnation_total"), verdict("job_health_plateau_total"),
		verdict("job_health_degradation_total"))
	if err := w.Flush(); err != nil {
		return err
	}

	// Residual curve: the slowest solve's exemplar carries one probed
	// solve's residual timeline (head + tail; long solves elide the
	// middle, which the step numbering makes visible). A batch exemplar's
	// Iterations sums its lanes, so the header takes the drawn solve's
	// step count from the timeline itself.
	for _, ex := range st.Exemplars {
		if len(ex.Residuals) == 0 {
			continue
		}
		fmt.Printf("\nresidual curve (slowest probed solve: %d iterations, %.3fs):\n",
			ex.ResidualIteration(len(ex.Residuals)-1), ex.Value)
		printResidualCurve(ex)
		break
	}
	return nil
}

// printResidualCurve draws an exemplar's residuals on a log10 scale, one
// bar per sampled step, at most 24 rows. Rows carry the solver step of
// each residual, so the middle the probe elided from a long solve shows
// as a gap in the numbering.
func printResidualCurve(ex telemetry.Exemplar) {
	const maxRows, width = 24, 40
	res := ex.Residuals
	step := 1
	if len(res) > maxRows {
		step = (len(res) + maxRows - 1) / maxRows
	}
	lo, hi := res[0], res[0]
	for _, r := range res {
		if r > 0 && (lo <= 0 || r < lo) {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if lo <= 0 || hi <= 0 || lo == hi {
		lo, hi = hi/10+1e-300, hi+1e-300
	}
	llo, lhi := mathLog10(lo), mathLog10(hi)
	for i := 0; i < len(res); i += step {
		frac := (mathLog10(res[i]) - llo) / (lhi - llo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		n := int(frac*float64(width) + 0.5)
		fmt.Printf("  iter %6d  %10.3e  |%s\n", ex.ResidualIteration(i), res[i], strings.Repeat("#", n))
	}
	if last := len(res) - 1; (len(res)-1)%step != 0 {
		fmt.Printf("  iter %6d  %10.3e  |\n", ex.ResidualIteration(last), res[last])
	}
}

func mathLog10(v float64) float64 {
	if v <= 0 {
		return -300
	}
	return math.Log10(v)
}

// cmdTop fetches every job's stats and prints a table ranked by
// attributed CPU time (then wall time), one row per job.
func cmdTop(ctx context.Context, c *server.Client) error {
	jobs, err := c.List(ctx)
	if err != nil {
		return err
	}
	type row struct {
		st    server.JobStatus
		stats server.JobStats
	}
	rows := make([]row, 0, len(jobs))
	for _, st := range jobs {
		b, err := c.Stats(ctx, st.ID)
		if err != nil {
			return fmt.Errorf("stats %s: %w", st.ID, err)
		}
		r := row{st: st}
		if err := json.Unmarshal(b, &r.stats); err != nil {
			return fmt.Errorf("stats %s: %v", st.ID, err)
		}
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].stats.CPUSeconds != rows[b].stats.CPUSeconds {
			return rows[a].stats.CPUSeconds > rows[b].stats.CPUSeconds
		}
		return rows[a].stats.WallSeconds > rows[b].stats.WallSeconds
	})
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "JOB\tSTATE\tKIND\tCPU(S)\tWALL(S)\tQUEUE(S)\tITERS\tPOINTS\tALLOC(MB)\tCACHE")
	for _, r := range rows {
		counter := func(name string) int64 { return r.stats.Registry.Counters[name] }
		cache := "-"
		if r.stats.CacheHit {
			cache = "hit"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.2f\t%.2f\t%.3f\t%d\t%d\t%.1f\t%s\n",
			r.st.ID, r.st.State, r.st.Kind,
			r.stats.CPUSeconds, r.stats.WallSeconds, r.stats.QueueWaitSeconds,
			counter("job_solver_iterations_total"),
			counter("job_points_total")+counter("job_points_replayed_total"),
			float64(r.stats.AllocBytes)/(1<<20), cache)
	}
	return w.Flush()
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, v := range splitList(s) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, v := range splitList(s) {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
