package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"voltstack/internal/telemetry/history"
)

// trackedMetric is one solver-health quantity the trend report follows
// through a history store. Each record may carry the quantity under any of
// several keys (vsserved job snapshots flatten the job registry; CLI run
// snapshots use health_* names), so lookup is by preference order.
type trackedMetric struct {
	name string
	keys []string
	// threshold flags a regression when latest/median-of-prior exceeds it;
	// zero means informational only (never gates the exit status).
	threshold float64
}

// trendMetric is one metric's verdict within a group, as emitted by -json.
type trendMetric struct {
	Metric     string  `json:"metric"`
	Records    int     `json:"records"`
	Median     float64 `json:"median"`
	Latest     float64 `json:"latest"`
	Ratio      float64 `json:"ratio"`
	Threshold  float64 `json:"threshold,omitempty"`
	Regression bool    `json:"regression"`
}

type trendGroup struct {
	Group   string        `json:"group"`
	Records int           `json:"records"`
	Metrics []trendMetric `json:"metrics"`
}

type trendReport struct {
	Dir        string       `json:"dir"`
	Records    int          `json:"records"`
	Groups     []trendGroup `json:"groups"`
	Regressed  bool         `json:"regressed"`
	iterThresh float64
	condThresh float64
}

// cmdTrend analyzes a history store: it groups records by producer, tracks
// iteration counts and condition estimates over time, and flags the latest
// snapshot as a regression when it exceeds the median of the prior ones by
// the configured factor. Exit: 0 clean, 1 regression, 2 usage/read error.
func cmdTrend(args []string, jsonOut bool) {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	iterThresh := fs.Float64("iter-threshold", 1.20, "flag a regression when latest iterations exceed the prior median by this factor")
	condThresh := fs.Float64("cond-threshold", 1.50, "flag a regression when the latest condition estimate exceeds the prior median by this factor")
	buckets := fs.Int("buckets", 8, "downsample each group's iteration timeline to this many buckets for display (0: off)")
	jsonFlag := fs.Bool("json", false, "emit the trend report as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vsreport trend [-json] [-iter-threshold X] [-cond-threshold X] [-buckets N] HISTORY-DIR")
		os.Exit(2)
	}
	dir := fs.Arg(0)
	recs, err := history.Read(dir)
	if err != nil {
		fatal(err)
	}
	if len(recs) == 0 {
		fatal(fmt.Errorf("no history records under %s", dir))
	}
	rep := buildTrend(dir, recs, *iterThresh, *condThresh)
	if jsonOut || *jsonFlag {
		emitJSON(rep)
	} else {
		renderTrend(rep, recs, *buckets)
	}
	if rep.Regressed {
		os.Exit(1)
	}
}

// trendGroupKey merges records that are comparable over time: CLI runs of
// the same binary recur under one key, while vsserved jobs (unique IDs)
// pool by kind so a slow job stands out against the history of all jobs.
func trendGroupKey(r history.Record) string {
	if r.Kind == "run" && r.ID != "" {
		return "run/" + r.ID
	}
	if r.Kind == "" {
		return "(unknown)"
	}
	return r.Kind
}

var trackedMetrics = []trackedMetric{
	{name: "iterations", keys: []string{"health_iterations", "job_solver_iterations_total", "sparse_pcg_iterations_total"}},
	{name: "cond_estimate", keys: []string{"health_cond_estimate", "job_health_cond_estimate"}},
	{name: "reduction_factor", keys: []string{"health_reduction_factor", "job_health_reduction_factor"}, threshold: 0},
}

func pickValue(r history.Record, keys []string) (float64, bool) {
	for _, k := range keys {
		if v, ok := r.Values[k]; ok {
			return v, true
		}
	}
	return 0, false
}

func buildTrend(dir string, recs []history.Record, iterThresh, condThresh float64) *trendReport {
	sorted := append([]history.Record(nil), recs...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].T < sorted[b].T })
	byGroup := map[string][]history.Record{}
	var order []string
	for _, r := range sorted {
		k := trendGroupKey(r)
		if _, seen := byGroup[k]; !seen {
			order = append(order, k)
		}
		byGroup[k] = append(byGroup[k], r)
	}
	rep := &trendReport{Dir: dir, Records: len(recs), iterThresh: iterThresh, condThresh: condThresh}
	for _, k := range order {
		group := trendGroup{Group: k, Records: len(byGroup[k])}
		for _, tm := range trackedMetrics {
			thresh := tm.threshold
			switch tm.name {
			case "iterations":
				thresh = iterThresh
			case "cond_estimate":
				thresh = condThresh
			}
			var series []float64
			for _, r := range byGroup[k] {
				if v, ok := pickValue(r, tm.keys); ok && v > 0 {
					series = append(series, v)
				}
			}
			if len(series) < 2 {
				continue // nothing prior to compare against
			}
			latest := series[len(series)-1]
			med := median(series[:len(series)-1])
			m := trendMetric{
				Metric:    tm.name,
				Records:   len(series),
				Median:    med,
				Latest:    latest,
				Ratio:     latest / med,
				Threshold: thresh,
			}
			if thresh > 0 && m.Ratio > thresh {
				m.Regression = true
				rep.Regressed = true
			}
			group.Metrics = append(group.Metrics, m)
		}
		rep.Groups = append(rep.Groups, group)
	}
	return rep
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func renderTrend(rep *trendReport, recs []history.Record, buckets int) {
	gplural := "s"
	if len(rep.Groups) == 1 {
		gplural = ""
	}
	fmt.Printf("history: %d records under %s (%d group%s)\n", rep.Records, rep.Dir, len(rep.Groups), gplural)
	byGroup := map[string][]history.Record{}
	for _, r := range recs {
		k := trendGroupKey(r)
		byGroup[k] = append(byGroup[k], r)
	}
	for _, g := range rep.Groups {
		plural := "s"
		if g.Records == 1 {
			plural = ""
		}
		fmt.Printf("\n%s  (%d record%s)\n", g.Group, g.Records, plural)
		if len(g.Metrics) == 0 {
			fmt.Printf("  (no comparable solver-health series: need >= 2 records carrying the same metric)\n")
			continue
		}
		for _, m := range g.Metrics {
			verdict := "ok"
			if m.Regression {
				verdict = fmt.Sprintf("REGRESSION (threshold x%.2f)", m.Threshold)
			} else if m.Threshold == 0 {
				verdict = "info"
			}
			fmt.Printf("  %-18s prior median %.6g, latest %.6g (x%.3f)  %s\n",
				m.Metric, m.Median, m.Latest, m.Ratio, verdict)
		}
		if buckets > 0 {
			printIterTimeline(byGroup[g.Group], buckets)
		}
	}
	if rep.Regressed {
		fmt.Printf("\nverdict: REGRESSION\n")
	} else {
		fmt.Printf("\nverdict: ok\n")
	}
}

// printIterTimeline shows the group's iteration series downsampled to the
// display budget, so a drift is visible at a glance without dumping every
// record.
func printIterTimeline(recs []history.Record, buckets int) {
	iterKeys := trackedMetrics[0].keys
	var with []history.Record
	for _, r := range recs {
		if v, ok := pickValue(r, iterKeys); ok && v > 0 {
			with = append(with, history.Record{T: r.T, Kind: r.Kind, ID: r.ID,
				Values: map[string]float64{"iterations": v}})
		}
	}
	if len(with) < 2 {
		return
	}
	ds := history.Downsample(with, buckets)
	fmt.Printf("  iteration timeline (%d records -> %d buckets):", len(with), len(ds))
	for _, r := range ds {
		fmt.Printf(" %.0f", r.Values["iterations"])
	}
	fmt.Println()
}
