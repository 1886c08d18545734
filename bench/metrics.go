package main

import (
	"math"
	"sort"
)

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; an op is one timed call of the workload (an
// experiment, a PDN call, an EM evaluation, an HTTP request or job).
var endToEnd = []metricDef{
	{"wall_s", "s"},          // median over rounds of the timed phase
	{"setup_s", "s"},         // median over every process started: spawn to first timed call
	{"cpu_s", "s"},           // median over rounds of user+sys CPU of the measured process
	{"peak_rss_mb", "MB"},    // median over rounds of the measured process's peak RSS
	{"latency_p50_ms", "ms"}, // over every op of the run
	{"latency_p95_ms", "ms"}, // over every op of the run
}

// perLayer are the metrics of single layers, from traced rounds. Every
// workload reports all of them; a layer the workload does not reach reads
// 0. Times are shares of the round's lane time (wall × lanes), so a
// round's top-level shares and bench.unattributed_pct add up to 100.
func perLayer() []metricDef {
	defs := []metricDef{
		{"bench.trace_overhead_pct", "%"},
		{"bench.unattributed_pct", "%"},
	}
	busy := func(name string) { defs = append(defs, metricDef{name + ".busy_pct", "%"}) }
	for _, e := range coreLayers {
		busy("core." + e)
	}
	busy("core.other")
	for _, n := range []string{"pdngrid.new", "pdngrid.solve_cold", "pdngrid.solve_warm", "pdngrid.solve_batch"} {
		busy(n)
	}
	for _, c := range pdnConfigs(pdnFull) {
		defs = append(defs,
			metricDef{"pdngrid.warm_per_s." + c.name, "1/s"},
			metricDef{"pdngrid.batch_lanes_per_s." + c.name, "1/s"})
	}
	defs = append(defs,
		metricDef{"sparse.iterations", "count"},
		metricDef{"sparse.direct_solves", "count"})
	busy("em.analytic")
	busy("em.mc")
	defs = append(defs, metricDef{"em.mc.trials_per_s", "1/s"})
	for _, n := range []string{"server.evaluate_miss", "server.evaluate_hit", "server.job",
		"server.job.submit", "server.job.queue_wait", "server.job.run", "server.job.poll_lag", "server.job.fetch"} {
		busy(n)
	}
	return append(defs,
		metricDef{"server.rejected", "count"},
		metricDef{"rescache.job_point_hits", "count"})
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// endToEndValues computes the end-to-end metrics of a run.
func endToEndValues(rounds []*Round, setups []float64) map[string]float64 {
	var walls, cpus, rss, lat []float64
	for _, r := range rounds {
		walls = append(walls, r.WallS)
		cpus = append(cpus, r.CPUS)
		rss = append(rss, r.RSSMB)
		for _, op := range r.Ops {
			lat = append(lat, op.MS)
		}
	}
	return map[string]float64{
		"wall_s":         median(walls),
		"setup_s":        median(setups),
		"cpu_s":          median(cpus),
		"peak_rss_mb":    median(rss),
		"latency_p50_ms": quantile(lat, 0.50),
		"latency_p95_ms": quantile(lat, 0.95),
	}
}

// perLayerValues computes the per-layer metrics of a traced run: busy
// shares from the spans of the traced rounds, the workload's own counts
// and rates, and the trace overhead against the untraced rounds. Every
// value is the median over the traced rounds.
func perLayerValues(untraced, traced []*Round) map[string]float64 {
	vals := map[string][]float64{}
	var tracedWalls, untracedWalls []float64
	for _, r := range untraced {
		untracedWalls = append(untracedWalls, r.WallS)
	}
	for _, r := range traced {
		tracedWalls = append(tracedWalls, r.WallS)
		laneS := r.WallS * float64(r.Lanes)
		busy := map[string]float64{}
		var top float64
		for _, sp := range r.Spans {
			busy[sp.Name] += float64(sp.Dur) / 1e9
			if sp.Parent == 0 {
				top += float64(sp.Dur) / 1e9
			}
		}
		for name, b := range busy {
			vals[name+".busy_pct"] = append(vals[name+".busy_pct"], 100*b/laneS)
		}
		vals["bench.unattributed_pct"] = append(vals["bench.unattributed_pct"], 100*(1-top/laneS))
		for k, v := range r.Layer {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for _, m := range perLayer() {
		if v, ok := vals[m.name]; ok {
			out[m.name] = median(v)
		} else {
			out[m.name] = 0
		}
	}
	out["bench.trace_overhead_pct"] = 100 * (median(tracedWalls)/median(untracedWalls) - 1)
	return out
}

// spanStats summarizes spans by name, and by name and argument: how many,
// total busy seconds and median milliseconds. It is the per-layer detail
// that BENCHMARK.json's shares leave out, such as the warm-solve latency
// of each PDN config or the queue wait of a job.
func spanStats(rounds []*Round) map[string]map[string]float64 {
	durs := map[string][]float64{}
	for _, r := range rounds {
		for _, sp := range r.Spans {
			ms := float64(sp.Dur) / 1e6
			durs[sp.Name] = append(durs[sp.Name], ms)
			if sp.Arg != "" {
				key := sp.Name + " " + sp.Arg
				durs[key] = append(durs[key], ms)
			}
		}
	}
	out := map[string]map[string]float64{}
	for key, ds := range durs {
		var sum float64
		for _, d := range ds {
			sum += d
		}
		out[key] = map[string]float64{"count": float64(len(ds)), "busy_s": sum / 1e3, "p50_ms": median(ds)}
	}
	return out
}
