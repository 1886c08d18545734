package pdngrid

import (
	"fmt"
	"math"
	"sync"

	"voltstack/internal/circuit"
	"voltstack/internal/floorplan"
	"voltstack/internal/power"
	"voltstack/internal/sc"
)

// Kind selects the power-delivery architecture.
type Kind int

const (
	// Regular is the conventional parallel PDN of Fig. 4a: all layers'
	// Vdd meshes tied together by TSVs, all ground meshes likewise, fed at
	// Vdd from the C4 pads.
	Regular Kind = iota
	// VoltageStacked is the charge-recycled series PDN of Fig. 4b: layer
	// i's ground mesh is the same rail as layer i-1's Vdd mesh, the top
	// mesh is fed at N·Vdd through through-vias, and SC converters
	// regulate every intermediate rail.
	VoltageStacked
)

// String names the PDN kind.
func (k Kind) String() string {
	if k == VoltageStacked {
		return "voltage-stacked"
	}
	return "regular"
}

// Config describes one 3D-IC PDN design scenario.
type Config struct {
	Kind   Kind
	Layers int
	Chip   *power.Chip
	Params Params
	TSV    TSVTopology

	// PadPowerFraction is the fraction of C4 pad sites allocated to power
	// delivery (split evenly between Vdd and ground).
	PadPowerFraction float64

	// ConvertersPerCore applies to VoltageStacked: SC converters per core
	// on every intermediate rail, uniformly distributed within the core.
	ConvertersPerCore int
	Converter         sc.Params

	// Solve configures the linear solver: kind, tolerance and iteration
	// budget. Each solve runs serially against the PDN's one shared
	// engine; SolveBatch runs its entries concurrently.
	Solve circuit.SolveOptions
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Layers < 1 {
		return fmt.Errorf("pdngrid: need at least 1 layer, got %d", c.Layers)
	}
	if c.Kind == VoltageStacked && c.Layers < 2 {
		return fmt.Errorf("pdngrid: voltage stacking needs at least 2 layers")
	}
	if c.Chip == nil {
		return fmt.Errorf("pdngrid: nil chip")
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.PadPowerFraction <= 0 || c.PadPowerFraction > 1 {
		return fmt.Errorf("pdngrid: pad power fraction %g out of (0,1]", c.PadPowerFraction)
	}
	if c.TSV.PerCore < 2 {
		return fmt.Errorf("pdngrid: TSV topology %q has too few TSVs", c.TSV.Name)
	}
	if c.Kind == VoltageStacked {
		if c.ConvertersPerCore < 1 {
			return fmt.Errorf("pdngrid: voltage stacking needs at least 1 converter per core")
		}
		if err := c.Converter.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SolverKind is the linear-solver kind of c's engine: Solve.Solver, or
// for Auto the kind the DC network's node count (two meshes per layer
// plus the two board nodes) and Solve.RHS pick.
func (c Config) SolverKind() circuit.SolverKind {
	return c.Solve.Kind(c.Layers*2*c.Params.GridNx*c.Params.GridNy + 2)
}

// lumpSite is a set of identical parallel conductors (pads or TSVs)
// attached to one mesh cell: electrically a single resistor of R/count,
// but counted as count conductors for EM statistics.
type lumpSite struct {
	cell  int
	count int
	vdd   bool
}

// PDN is a placed, solvable power delivery network.
type PDN struct {
	Cfg    Config
	raster floorplan.Raster
	fp     *floorplan.Floorplan
	nCells int

	padSites []lumpSite // C4 power pads on the bottom layer
	tsvSites []lumpSite // per-boundary TSV sites (same placement each boundary)
	convCell []int      // converter host cells (per core × ConvertersPerCore)

	// The compiled engine: every Solve on this PDN shares one sparsity
	// structure and one factor, so the first solve builds the engine and
	// every solve, concurrent or not, reads it.
	engOnce sync.Once
	eng     *engine
	engErr  error
}

// New validates the configuration and computes all placements.
func New(cfg Config) (*PDN, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	die := cfg.Chip.Die()
	raster := floorplan.NewRaster(die, cfg.Params.GridNx, cfg.Params.GridNy)
	fp, err := cfg.Chip.Floorplan()
	if err != nil {
		return nil, err
	}
	p := &PDN{
		Cfg:    cfg,
		raster: raster,
		fp:     fp,
		nCells: cfg.Params.GridNx * cfg.Params.GridNy,
	}
	p.placePads()
	p.placeTSVs()
	p.placeConverters()
	return p, nil
}

// placePads lays C4 pads on the pad-pitch lattice, selects the power
// fraction with an even stride, and alternates Vdd/ground in a
// checkerboard.
func (p *PDN) placePads() {
	die := p.raster.Die
	pitch := p.Cfg.Params.PadPitch
	cols := int(die.W / pitch)
	rows := int(die.H / pitch)
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	f := p.Cfg.PadPowerFraction
	agg := map[[2]int]int{} // (cell, vddFlag) -> count
	selected := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			s := r*cols + c
			// Even-stride selection of the power fraction.
			if int(float64(s+1)*f) == int(float64(s)*f) {
				continue
			}
			x := die.X + (float64(c)+0.5)*die.W/float64(cols)
			y := die.Y + (float64(r)+0.5)*die.H/float64(rows)
			ix, iy := p.raster.CellOf(x, y)
			// Alternate Vdd/ground over the selected sequence so the split
			// stays exactly half-half for any fraction and lattice shape.
			vdd := selected % 2
			selected++
			agg[[2]int{p.raster.Index(ix, iy), vdd}]++
		}
	}
	for key, count := range agg {
		p.padSites = append(p.padSites, lumpSite{cell: key[0], count: count, vdd: key[1] == 1})
	}
	sortSites(p.padSites)
}

// placeTSVs distributes each core's TSV allocation uniformly within the
// core tile, half Vdd and half ground, on interleaved sub-lattices.
func (p *PDN) placeTSVs() {
	per := p.Cfg.TSV.VddPerCore()
	agg := map[[2]int]int{}
	for _, tile := range p.fp.Tiles {
		k := int(math.Ceil(math.Sqrt(float64(per))))
		placed := 0
		for j := 0; j < k && placed < per; j++ {
			for i := 0; i < k && placed < per; i++ {
				x := tile.X + (float64(i)+0.5)*tile.W/float64(k)
				y := tile.Y + (float64(j)+0.5)*tile.H/float64(k)
				ix, iy := p.raster.CellOf(x, y)
				cell := p.raster.Index(ix, iy)
				// Vdd and ground TSVs are adjacent pairs at every site.
				agg[[2]int{cell, 1}]++
				agg[[2]int{cell, 0}]++
				placed++
			}
		}
	}
	for key, count := range agg {
		p.tsvSites = append(p.tsvSites, lumpSite{cell: key[0], count: count, vdd: key[1] == 1})
	}
	sortSites(p.tsvSites)
}

// placeConverters distributes ConvertersPerCore host cells per core.
func (p *PDN) placeConverters() {
	n := p.Cfg.ConvertersPerCore
	if p.Cfg.Kind != VoltageStacked || n == 0 {
		return
	}
	for _, tile := range p.fp.Tiles {
		k := int(math.Ceil(math.Sqrt(float64(n))))
		placed := 0
		for j := 0; j < k && placed < n; j++ {
			for i := 0; i < k && placed < n; i++ {
				x := tile.X + (float64(i)+0.5)*tile.W/float64(k)
				y := tile.Y + (float64(j)+0.5)*tile.H/float64(k)
				ix, iy := p.raster.CellOf(x, y)
				p.convCell = append(p.convCell, p.raster.Index(ix, iy))
				placed++
			}
		}
	}
}

func sortSites(sites []lumpSite) {
	// Deterministic order: by cell, Vdd first.
	for i := 1; i < len(sites); i++ {
		for j := i; j > 0; j-- {
			a, b := sites[j-1], sites[j]
			if a.cell < b.cell || (a.cell == b.cell && a.vdd && !b.vdd) {
				break
			}
			sites[j-1], sites[j] = b, a
		}
	}
}

// NumPowerPads returns the total number of power C4 pads (Vdd + ground).
func (p *PDN) NumPowerPads() int {
	n := 0
	for _, s := range p.padSites {
		n += s.count
	}
	return n
}

// NumVddPads returns the number of Vdd C4 pads.
func (p *PDN) NumVddPads() int {
	n := 0
	for _, s := range p.padSites {
		if s.vdd {
			n += s.count
		}
	}
	return n
}

// NumTSVsPerBoundary returns the number of power TSVs crossing each layer
// boundary (Vdd + ground flavors).
func (p *PDN) NumTSVsPerBoundary() int {
	n := 0
	for _, s := range p.tsvSites {
		n += s.count
	}
	return n
}

// ConverterCount returns the number of SC converters in the whole stack.
func (p *PDN) ConverterCount() int {
	if p.Cfg.Kind != VoltageStacked {
		return 0
	}
	return len(p.convCell) * (p.Cfg.Layers - 1)
}

// AreaOverheadFrac returns the per-layer silicon area overhead of the PDN
// (TSV keep-out zones plus converter area as a fraction of layer area).
func (p *PDN) AreaOverheadFrac() float64 {
	core := p.Cfg.Chip.Core.Area
	over := p.Cfg.TSV.AreaOverheadFrac(core, p.Cfg.Params.TSVKoZSide)
	if p.Cfg.Kind == VoltageStacked {
		over += float64(p.Cfg.ConvertersPerCore) * p.Cfg.Converter.Area() / core
	}
	return over
}
