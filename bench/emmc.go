package main

import (
	"fmt"
	"math"

	"voltstack/internal/core"
	"voltstack/internal/em"
	"voltstack/internal/pdngrid"
	"voltstack/internal/units"
)

// emSize scales em-mc: the PDN mesh and the Monte Carlo trials per group.
type emSize struct{ grid, trials int }

// emFull is `emlife -grid 32 -mc-trials 20000`: Monte Carlo is over 90%
// of a round, which stays short enough for several rounds per run.
var emFull = emSize{grid: 32, trials: 20000}

// prepareEM sets up em-mc with emlife's defaults: 8 layers, Few TSVs, a
// quarter of the C4 sites for power and 4 converters per core on the V-S
// side. emlife solves its two design points concurrently; here they run
// one after the other, so every call's time is its own and the Monte
// Carlo calls still use every worker.
func prepareEM(seed int64, size emSize) (roundFunc, error) {
	const layers, padFrac = 8, 0.25
	s := core.NewStudy()
	s.Params.GridNx, s.Params.GridNy = size.grid, size.grid
	s.Seed = seed
	tsv := pdngrid.FewTSV()
	points := []struct {
		name  string
		build func() (*pdngrid.PDN, error)
	}{
		{"regular", func() (*pdngrid.PDN, error) { return s.RegularPDN(layers, tsv, padFrac) }},
		{"voltage-stacked", func() (*pdngrid.PDN, error) { return s.VoltageStackedPDN(layers, 4, tsv, padFrac) }},
	}
	acts := pdngrid.UniformActivities(layers, s.Chip.NumCores(), 1)
	tempK := units.CelsiusToKelvin(s.Params.TempCelsius)
	return func(rec *recorder) (*Round, error) {
		layer := map[string]float64{}
		var mcS float64
		for _, pt := range points {
			var p *pdngrid.PDN
			rec.op("pdngrid.new", pt.name, func() (err error) {
				p, err = pt.build()
				return err
			})
			if p == nil {
				continue
			}
			var r *pdngrid.Result
			rec.op("pdngrid.solve_cold", pt.name, func() (err error) {
				if r, err = p.Solve(acts); err == nil {
					countSolve(layer, r)
					err = checkPDN(r)
				}
				return err
			})
			if r == nil {
				continue
			}
			groups := []struct {
				name     string
				currents []float64
				bp       em.BlackParams
				analytic func(*pdngrid.Result) (float64, error)
			}{
				{"tsv", r.TSVCurrents, s.EMTsv, s.TSVLifetime},
				{"c4", r.PadCurrents, s.EMC4, s.C4Lifetime},
			}
			for _, g := range groups {
				arg := pt.name + "/" + g.name
				var want float64
				rec.op("em.analytic", arg, func() (err error) {
					want, err = g.analytic(r)
					return err
				})
				mcS += rec.op("em.mc", arg, func() error {
					grp := em.NewGroup(g.bp.SigmaLog)
					for _, c := range g.currents {
						grp.AddConductor(g.bp, c, tempK)
					}
					got, err := grp.SimulateMedianLifetimeWorkers(size.trials, s.Seed, 0)
					if err != nil {
						return err
					}
					if d := math.Abs(got-want) / want; !(d <= 0.02) {
						return fmt.Errorf("Monte Carlo median %.4g is %.2f%% off the analytic %.4g", got, 100*d, want)
					}
					return nil
				}).Seconds()
			}
		}
		r := rec.round(1)
		layer["em.mc.trials_per_s"] = float64(2*len(points)*size.trials) / mcS
		r.Layer = layer
		return r, nil
	}, nil
}
