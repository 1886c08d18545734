// Transient: the RLC extension of the DC-only noise analysis. A
// synchronized load step (every layer jumping from 10% to full activity)
// rings through the package inductance and on-die decap; because a
// voltage-stacked PDN draws ~1/N the off-chip current, its L·di/dt kick
// is a fraction of the regular PDN's.
package main

import (
	"fmt"
	"log"
	"math"

	"voltstack/internal/pdngrid"
	"voltstack/internal/power"
	"voltstack/internal/sc"
	"voltstack/internal/units"
)

func main() {
	chip := power.Example16Core()
	params := pdngrid.DefaultParams()
	params.GridNx, params.GridNy = 16, 16

	converter := sc.Default28nm()
	converter.Cap = sc.Trench

	build := func(kind pdngrid.Kind, tsv pdngrid.TSVTopology, conv int) *pdngrid.PDN {
		p, err := pdngrid.New(pdngrid.Config{
			Kind:              kind,
			Layers:            4,
			Chip:              chip,
			Params:            params,
			TSV:               tsv,
			PadPowerFraction:  0.5,
			ConvertersPerCore: conv,
			Converter:         converter,
		})
		if err != nil {
			log.Fatal(err)
		}
		return p
	}

	// A 40 ns window, at the default step.
	tc := pdngrid.DefaultTransient()
	tc.Steps = int(math.Round(40 * units.Nanosecond / tc.DT))

	fmt.Printf("synchronized load step %.0f%% -> %.0f%% activity, 4-layer stacks\n",
		100*tc.RestActivity, 100*tc.StepActivity)
	fmt.Printf("package: %.0f pH per polarity; on-die decap: %.1f nF/mm² per layer\n\n",
		tc.PkgL*1e12, tc.DecapPerArea*1e9/1e6)

	for _, c := range []struct {
		name string
		pdn  *pdngrid.PDN
	}{
		{"regular (Dense TSV)", build(pdngrid.Regular, pdngrid.DenseTSV(), 0)},
		{"voltage-stacked (Few TSV, 8 conv/core)", build(pdngrid.VoltageStacked, pdngrid.FewTSV(), 8)},
	} {
		r, err := c.pdn.SolveTransient(tc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-40s first droop %.2f%% Vdd (worst layer %d), %.2f%% at window end\n",
			c.name, 100*r.WorstDroopFrac, r.WorstLayer, 100*r.FinalDroopFrac)
	}

	fmt.Println()
	fmt.Println("The regular PDN's full N-layer current step slams the package inductance;")
	fmt.Println("the stack's off-chip step is ~1/N as large, and so is its first droop.")
}
