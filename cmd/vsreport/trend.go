package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"voltstack/internal/server"
	"voltstack/internal/telemetry"
)

// trackedMetric is one solver-health quantity the trend report follows.
type trackedMetric struct {
	name string
	// value reads the metric from one record; 0 when the record carries
	// none.
	value func(trendRecord) float64
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
	Sources   []string     `json:"sources"`
	Records   int          `json:"records"`
	Groups    []trendGroup `json:"groups"`
	Regressed bool         `json:"regressed"`
}

// trendRecord is one finished unit of work: a daemon job or a CLI run.
// Records of one group did the same work, so their solver effort is
// comparable. conv is the unit's convergence record, nil when it made no
// PCG solve or was written before the record existed.
type trendRecord struct {
	group string
	t     time.Time
	reg   telemetry.RegistrySnapshot
	conv  *telemetry.ConvergenceReport
}

// cmdTrend reads solver-health records from vsserved state directories
// and run manifests, groups records that did the same work, and flags a
// group's latest record as a regression when a tracked metric exceeds
// the median of the prior ones by the configured factor. Exit: 0 clean,
// 1 regression, 2 usage/read error.
func cmdTrend(args []string, jsonOut bool) {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	iterThresh := fs.Float64("iter-threshold", 1.20, "flag a regression when latest iterations exceed the prior median by this factor")
	condThresh := fs.Float64("cond-threshold", 1.50, "flag a regression when the latest condition estimate exceeds the prior median by this factor")
	jsonFlag := fs.Bool("json", false, "emit the trend report as JSON")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: vsreport trend [-json] [-iter-threshold X] [-cond-threshold X] STATE-DIR|MANIFEST...")
		os.Exit(2)
	}
	rep, err := trend(fs.Args(), *iterThresh, *condThresh)
	if err != nil {
		fatal(err)
	}
	if jsonOut || *jsonFlag {
		emitJSON(rep)
	} else {
		renderTrend(rep)
	}
	if rep.Regressed {
		os.Exit(1)
	}
}

// trend loads every path and builds the report. A directory is read as a
// vsserved state dir, a file as a run manifest.
func trend(paths []string, iterThresh, condThresh float64) (*trendReport, error) {
	var recs []trendRecord
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		var got []trendRecord
		if st.IsDir() {
			got, err = jobRecords(p)
		} else {
			got, err = runRecord(p)
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, got...)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no finished jobs or runs in %s", strings.Join(paths, ", "))
	}
	return buildTrend(paths, recs, iterThresh, condThresh), nil
}

// jobRecords reads a state dir's terminal jobs. A job's group is its
// request identity, so the same request compares against itself across
// daemon restarts and builds.
func jobRecords(stateDir string) ([]trendRecord, error) {
	jobs, err := server.ReadJournal(stateDir)
	if err != nil {
		return nil, err
	}
	out := make([]trendRecord, len(jobs))
	for i, j := range jobs {
		req, err := json.Marshal(j.Request)
		if err != nil {
			return nil, err
		}
		out[i] = trendRecord{group: "job " + string(req), t: j.FinishedAt, reg: j.Stats.Registry, conv: j.Stats.Convergence}
	}
	return out, nil
}

// runRecord reads one run manifest. A run's group is its binary plus every
// flag but the observability ones.
func runRecord(path string) ([]trendRecord, error) {
	m, err := telemetry.LoadManifest(path)
	if err != nil {
		return nil, err
	}
	t, err := time.Parse(time.RFC3339, m.StartTime)
	if err != nil {
		return nil, fmt.Errorf("manifest %s: start_time: %w", path, err)
	}
	var reg telemetry.RegistrySnapshot
	if len(m.Metrics) > 0 {
		if err := json.Unmarshal(m.Metrics, &reg); err != nil {
			return nil, fmt.Errorf("manifest %s: metrics: %w", path, err)
		}
	}
	work := map[string]string{}
	for name, v := range m.Flags {
		if !telemetry.IsObservabilityFlag(name) {
			work[name] = v
		}
	}
	flags, err := json.Marshal(work)
	if err != nil {
		return nil, err
	}
	return []trendRecord{{group: m.Binary + " " + string(flags), t: t, reg: reg, conv: m.Convergence}}, nil
}

// iterations is a record's total solver iterations: a job's stats
// registry and a run manifest's metrics count them under different names.
func iterations(r trendRecord) float64 {
	if v, ok := r.reg.Counters["job_solver_iterations_total"]; ok {
		return float64(v)
	}
	return float64(r.reg.Counters["sparse_pcg_iterations_total"])
}

func condEstimate(r trendRecord) float64 {
	if r.conv == nil {
		return 0
	}
	return r.conv.CondEstimate
}

func reductionFactor(r trendRecord) float64 {
	if r.conv == nil {
		return 0
	}
	return r.conv.ReductionFactor
}

// buildTrend orders recs by time (ties keep their input order), groups
// them in order of first appearance and judges each tracked metric.
func buildTrend(sources []string, recs []trendRecord, iterThresh, condThresh float64) *trendReport {
	sorted := append([]trendRecord(nil), recs...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].t.Before(sorted[b].t) })
	byGroup := map[string][]trendRecord{}
	var order []string
	for _, r := range sorted {
		if _, seen := byGroup[r.group]; !seen {
			order = append(order, r.group)
		}
		byGroup[r.group] = append(byGroup[r.group], r)
	}
	tracked := []trackedMetric{
		{"iterations", iterations, iterThresh},
		{"cond_estimate", condEstimate, condThresh},
		{"reduction_factor", reductionFactor, 0},
	}
	rep := &trendReport{Sources: sources, Records: len(recs)}
	for _, k := range order {
		group := trendGroup{Group: k, Records: len(byGroup[k])}
		for _, tm := range tracked {
			var series []float64
			for _, r := range byGroup[k] {
				if v := tm.value(r); v > 0 {
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
				Threshold: tm.threshold,
			}
			if tm.threshold > 0 && m.Ratio > tm.threshold {
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

func renderTrend(rep *trendReport) {
	gplural := "s"
	if len(rep.Groups) == 1 {
		gplural = ""
	}
	fmt.Printf("trend: %d records from %s (%d group%s)\n", rep.Records, strings.Join(rep.Sources, ", "), len(rep.Groups), gplural)
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
	}
	if rep.Regressed {
		fmt.Printf("\nverdict: REGRESSION\n")
	} else {
		fmt.Printf("\nverdict: ok\n")
	}
}
