package main

import (
	"fmt"
	"math"
	"math/rand"

	"voltstack/internal/core"
	"voltstack/internal/pdngrid"
)

// pdnSize scales pdn-solve: every mesh × layer count × PDN kind is one
// config, solved once cold, warm times warm, then once as a batch of the
// first batch warm maps.
type pdnSize struct {
	meshes, layers []int
	warm, batch    int
}

// pdnFull spans 1k to 16k nodes, on both sides of circuit.Auto's
// 4,000-node switch from the direct solver to IC(0)-PCG.
var pdnFull = pdnSize{meshes: []int{16, 32}, layers: []int{2, 4, 8}, warm: 10, batch: 8}

type pdnConfig struct {
	name string
	cfg  pdngrid.Config
	maps [][][]float64 // cold map, then the warm maps
}

// pdnConfigs builds the configs of one size in run order: a regular PDN
// with Dense TSVs and a V-S PDN with Few TSVs and 8 converters per core,
// both with half the C4 sites for power.
func pdnConfigs(size pdnSize) []pdnConfig {
	var out []pdnConfig
	for _, mesh := range size.meshes {
		for _, layers := range size.layers {
			s := core.NewStudy()
			s.Params.GridNx, s.Params.GridNy = mesh, mesh
			base := pdngrid.Config{
				Layers:           layers,
				Chip:             s.Chip,
				Params:           s.Params,
				PadPowerFraction: 0.5,
			}
			reg := base
			reg.Kind, reg.TSV = pdngrid.Regular, pdngrid.DenseTSV()
			vs := base
			vs.Kind, vs.TSV = pdngrid.VoltageStacked, pdngrid.FewTSV()
			vs.ConvertersPerCore, vs.Converter = 8, s.Converter
			out = append(out,
				pdnConfig{name: fmt.Sprintf("g%d-l%d-reg", mesh, layers), cfg: reg},
				pdnConfig{name: fmt.Sprintf("g%d-l%d-vs", mesh, layers), cfg: vs})
		}
	}
	return out
}

// preparePDN sets up pdn-solve: the configs and, from the seed, a per-core
// activity in [0.2, 1] for every core of every layer of every map.
func preparePDN(seed int64, size pdnSize) (roundFunc, error) {
	rng := rand.New(rand.NewSource(seed))
	cfgs := pdnConfigs(size)
	for i := range cfgs {
		c := &cfgs[i]
		cores := c.cfg.Chip.NumCores()
		for m := 0; m < 1+size.warm; m++ {
			acts := make([][]float64, c.cfg.Layers)
			for l := range acts {
				acts[l] = make([]float64, cores)
				for k := range acts[l] {
					acts[l][k] = 0.2 + 0.8*rng.Float64()
				}
			}
			c.maps = append(c.maps, acts)
		}
	}
	return func(rec *recorder) (*Round, error) {
		layer := map[string]float64{}
		for _, c := range cfgs {
			solvePDN(rec, c, size, layer)
		}
		r := rec.round(1)
		r.Layer = layer
		return r, nil
	}, nil
}

// solvePDN runs one config as a single serial caller would and adds its
// counts and rates to layer.
func solvePDN(rec *recorder, c pdnConfig, size pdnSize, layer map[string]float64) {
	var p *pdngrid.PDN
	rec.op("pdngrid.new", c.name, func() (err error) {
		p, err = pdngrid.New(c.cfg)
		return err
	})
	if p == nil {
		return
	}
	rec.op("pdngrid.solve_cold", c.name, func() error {
		r, err := p.Solve(c.maps[0])
		if err == nil {
			countSolve(layer, r)
			err = checkPDN(r)
		}
		return err
	})
	warm := make([]*pdngrid.Result, size.warm)
	var warmS float64
	for i := range warm {
		warmS += rec.op("pdngrid.solve_warm", c.name, func() error {
			r, err := p.Solve(c.maps[1+i])
			if err == nil {
				countSolve(layer, r)
				warm[i] = r
				err = checkPDN(r)
			}
			return err
		}).Seconds()
	}
	layer["pdngrid.warm_per_s."+c.name] = float64(size.warm) / warmS
	batchS := rec.op("pdngrid.solve_batch", c.name, func() error {
		rs, err := p.SolveBatch(c.maps[1 : 1+size.batch])
		if err != nil {
			return err
		}
		for i, r := range rs {
			countSolve(layer, r)
			if err := checkPDN(r); err != nil {
				return fmt.Errorf("lane %d: %w", i, err)
			}
			if warm[i] == nil {
				continue // the serial solve failed and was counted already
			}
			if d := relDiff(r, warm[i]); d > 1e-9 {
				return fmt.Errorf("lane %d differs from the serial solve of its map by %.3g", i, d)
			}
		}
		return nil
	}).Seconds()
	layer["pdngrid.batch_lanes_per_s."+c.name] = float64(size.batch) / batchS
}

// countSolve adds one PDN result to the solver counts in layer.
func countSolve(layer map[string]float64, r *pdngrid.Result) {
	layer["sparse.iterations"] += float64(r.TotalSolverIterations)
	if r.SolverIterations == 0 {
		layer["sparse.direct_solves"]++
	}
}

// checkPDN holds one PDN result to energy balance and to the solver's
// residual.
func checkPDN(r *pdngrid.Result) error {
	balance := math.Abs(r.InputPower-r.LoadPower-r.ConverterLoss-r.WireLoss) / r.InputPower
	if !(balance <= 1e-6) {
		return fmt.Errorf("energy balance off by %.3g of input power", balance)
	}
	if !(r.SolverResidual <= 1e-8) {
		return fmt.Errorf("solver residual %.3g", r.SolverResidual)
	}
	return nil
}

// relDiff is the largest difference between two results' cell voltages
// and input powers, relative to the larger value.
func relDiff(a, b *pdngrid.Result) float64 {
	d := math.Abs(a.InputPower-b.InputPower) / math.Max(math.Abs(a.InputPower), math.Abs(b.InputPower))
	for l := range a.CellVoltages {
		for i, v := range a.CellVoltages[l] {
			w := b.CellVoltages[l][i]
			if s := math.Max(math.Abs(v), math.Abs(w)); s > 0 {
				d = math.Max(d, math.Abs(v-w)/s)
			}
		}
	}
	return d
}
