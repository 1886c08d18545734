package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"voltstack/internal/pdngrid"
	"voltstack/internal/telemetry"
)

// Experiment registry: the canonical name → driver mapping behind both
// cmd/vsexplore and the evaluation service. Registering here (instead of
// in each binary) guarantees that a job submitted over HTTP runs exactly
// the code the CLI runs, so the two render byte-identical output.

// experimentOrder is the canonical execution/printing order.
var experimentOrder = []string{
	"table1", "table2", "fig3a", "fig3b", "fig5a", "fig5b", "fig6", "fig7", "fig8",
	"thermal", "headlines", "ext-transient", "ext-converters", "ext-scheduling",
	"ext-electrothermal", "ext-thermal-em", "ext-guardband", "ext-trace-noise",
	"ext-scaling", "ext-dvfs", "ext-decap-split", "ext-em-mc",
}

// textRunners renders each experiment as the human-readable table/figure
// text of vsexplore's default mode.
var textRunners = map[string]func(*Study) (string, error){
	"table1": func(s *Study) (string, error) { return RenderTable1(s.Table1()), nil },
	"table2": func(s *Study) (string, error) { return RenderTable2(s.Table2()), nil },
	"fig3a": func(s *Study) (string, error) {
		pts, err := s.Fig3a()
		if err != nil {
			return "", err
		}
		return RenderFig3("Fig. 3a: closed-loop SC converter validation (model vs. switch-level simulation)", pts, false), nil
	},
	"fig3b": func(s *Study) (string, error) {
		pts, err := s.Fig3b()
		if err != nil {
			return "", err
		}
		return RenderFig3("Fig. 3b: open-loop SC converter validation (model vs. switch-level simulation)", pts, true), nil
	},
	"fig5a": func(s *Study) (string, error) {
		f, err := s.Fig5a()
		if err != nil {
			return "", err
		}
		return RenderFig5("Fig. 5a: normalized power-supply TSV EM-free MTTF (base: 2-layer V-S)", f), nil
	},
	"fig5b": func(s *Study) (string, error) {
		f, err := s.Fig5b()
		if err != nil {
			return "", err
		}
		return RenderFig5("Fig. 5b: normalized power-supply C4 EM-free MTTF (base: 2-layer V-S)", f), nil
	},
	"fig6": func(s *Study) (string, error) {
		f, err := s.Fig6()
		if err != nil {
			return "", err
		}
		return RenderFig6(f), nil
	},
	"fig7": func(s *Study) (string, error) { return RenderFig7(s.Fig7()), nil },
	"fig8": func(s *Study) (string, error) {
		f, err := s.Fig8()
		if err != nil {
			return "", err
		}
		return RenderFig8(f), nil
	},
	"thermal": func(s *Study) (string, error) {
		tc, err := s.Thermal()
		if err != nil {
			return "", err
		}
		return RenderThermal(tc), nil
	},
	"headlines": func(s *Study) (string, error) {
		h, err := s.Headlines()
		if err != nil {
			return "", err
		}
		return RenderHeadlines(h), nil
	},
	"ext-transient": func(s *Study) (string, error) {
		r, err := s.ExtTransient()
		if err != nil {
			return "", err
		}
		return RenderExtTransient(r), nil
	},
	"ext-converters": func(s *Study) (string, error) {
		return RenderExtConverters(s.ExtConverters()), nil
	},
	"ext-scheduling": func(s *Study) (string, error) {
		r, err := s.ExtScheduling()
		if err != nil {
			return "", err
		}
		return RenderExtScheduling(r), nil
	},
	"ext-decap-split": func(s *Study) (string, error) {
		r, err := s.ExtDecapSplit(pdngrid.DefaultTransient().Steps)
		if err != nil {
			return "", err
		}
		return RenderExtDecapSplit(r), nil
	},
	"ext-dvfs": func(s *Study) (string, error) {
		r, err := s.ExtDVFS()
		if err != nil {
			return "", err
		}
		return RenderExtDVFS(r), nil
	},
	"ext-scaling": func(s *Study) (string, error) {
		r, err := s.ExtScaling()
		if err != nil {
			return "", err
		}
		return RenderExtScaling(r), nil
	},
	"ext-trace-noise": func(s *Study) (string, error) {
		r, err := s.ExtTraceNoise(100)
		if err != nil {
			return "", err
		}
		return RenderExtTraceNoise(r), nil
	},
	"ext-guardband": func(s *Study) (string, error) {
		r, err := s.ExtGuardband()
		if err != nil {
			return "", err
		}
		return RenderExtGuardband(r), nil
	},
	"ext-thermal-em": func(s *Study) (string, error) {
		r, err := s.ExtThermalEM()
		if err != nil {
			return "", err
		}
		return RenderExtThermalEM(r), nil
	},
	"ext-em-mc": func(s *Study) (string, error) {
		r, err := s.ExtEMMonteCarlo(context.Background(), 4000)
		if err != nil {
			return "", err
		}
		return RenderExtEMMonteCarlo(r), nil
	},
	"ext-electrothermal": func(s *Study) (string, error) {
		var rows []*ExtElectrothermalResult
		for layers := 2; layers <= 8; layers += 2 {
			r, err := s.ExtElectrothermal(layers)
			if err != nil {
				return "", err
			}
			rows = append(rows, r)
		}
		return RenderExtElectrothermal(rows), nil
	},
}

// csvRunners renders the figures that have a machine-readable CSV form.
var csvRunners = map[string]func(*Study) (string, error){
	"fig3a": func(s *Study) (string, error) {
		pts, err := s.Fig3a()
		if err != nil {
			return "", err
		}
		return CSVFig3(pts), nil
	},
	"fig3b": func(s *Study) (string, error) {
		pts, err := s.Fig3b()
		if err != nil {
			return "", err
		}
		return CSVFig3(pts), nil
	},
	"fig5a": func(s *Study) (string, error) {
		fig, err := s.Fig5a()
		if err != nil {
			return "", err
		}
		return CSVFig5(fig), nil
	},
	"fig5b": func(s *Study) (string, error) {
		fig, err := s.Fig5b()
		if err != nil {
			return "", err
		}
		return CSVFig5(fig), nil
	},
	"fig6": func(s *Study) (string, error) {
		fig, err := s.Fig6()
		if err != nil {
			return "", err
		}
		return CSVFig6(fig), nil
	},
	"fig7": func(s *Study) (string, error) { return CSVFig7(s.Fig7()), nil },
	"fig8": func(s *Study) (string, error) {
		fig, err := s.Fig8()
		if err != nil {
			return "", err
		}
		return CSVFig8(fig), nil
	},
}

// Experiment instrumentation: how many experiments ran and how long each
// took, with one core.<name> trace span per experiment.
var (
	mExperiments       = telemetry.NewCounter("core_experiments_total")
	mExperimentSeconds = telemetry.NewHistogram("core_experiment_seconds")
)

// ExperimentNames returns every registered experiment in canonical order.
// The returned slice is fresh; callers may mutate it.
func ExperimentNames() []string {
	return append([]string(nil), experimentOrder...)
}

// IsExperiment reports whether name is a registered experiment.
func IsExperiment(name string) bool {
	_, ok := textRunners[name]
	return ok
}

// HasCSV reports whether the named experiment has a CSV rendering.
func HasCSV(name string) bool {
	_, ok := csvRunners[name]
	return ok
}

// CSVExperimentNames returns the experiments with a CSV form, sorted.
func CSVExperimentNames() []string {
	names := make([]string, 0, len(csvRunners))
	for n := range csvRunners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunExperiment runs one named experiment driver on s and returns its
// rendered output — the exact bytes vsexplore prints for it. Each run
// opens one core.<name> span (annotated with the trace of s.Scope), and
// counts once in core_experiments_total.
func RunExperiment(s *Study, name string, csv bool) (string, error) {
	runners := textRunners
	if csv {
		runners = csvRunners
	}
	run, ok := runners[name]
	if !ok {
		if csv && IsExperiment(name) {
			return "", fmt.Errorf("core: no CSV form for %q", name)
		}
		return "", fmt.Errorf("core: unknown experiment %q", name)
	}
	sp := telemetry.StartSpanTrace("core."+name, s.Scope.Trace())
	t0 := time.Now()
	defer func() {
		mExperiments.Add(1)
		mExperimentSeconds.Since(t0)
		sp.End()
	}()
	return run(s)
}
