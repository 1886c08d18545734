package thermal

import (
	"math"
	"testing"

	"voltstack/internal/floorplan"
	"voltstack/internal/power"
	"voltstack/internal/units"
)

func chipCells(t *testing.T, cfg Config, activity float64) []float64 {
	t.Helper()
	chip := power.Example16Core()
	fp, err := chip.Floorplan()
	if err != nil {
		t.Fatal(err)
	}
	acts := make([]float64, 16)
	for i := range acts {
		acts[i] = activity
	}
	pm, err := chip.PowerMap(acts)
	if err != nil {
		t.Fatal(err)
	}
	raster := floorplan.NewRaster(chip.Die(), cfg.Nx, cfg.Ny)
	cells, err := raster.Distribute(fp.Blocks, pm)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func stackMaps(cells []float64, layers int) [][]float64 {
	maps := make([][]float64, layers)
	for i := range maps {
		maps[i] = cells
	}
	return maps
}

func TestValidation(t *testing.T) {
	die := floorplan.Rect{W: 6.6e-3, H: 6.6e-3}
	good := DefaultConfig(die, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.Layers = 0 },
		func(c *Config) { c.Die.W = 0 },
		func(c *Config) { c.Nx = 1 },
		func(c *Config) { c.Mat.SiK = 0 },
		func(c *Config) { c.Mat.TIMThick = 0 },
		func(c *Config) { c.SinkR = 0 },
	}
	for i, m := range muts {
		c := good
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestZeroPowerIsAmbient(t *testing.T) {
	die := power.Example16Core().Die()
	cfg := DefaultConfig(die, 3)
	maps := stackMaps(make([]float64, cfg.Nx*cfg.Ny), 3)
	r, err := Solve(cfg, maps)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(r.MaxC, cfg.AmbientC, 1e-6, 1e-9) {
		t.Errorf("unpowered stack at %g C, want ambient %g", r.MaxC, cfg.AmbientC)
	}
}

func TestSingleLayerEnergyConservation(t *testing.T) {
	// Total heat through the sink resistance equals total power:
	// Tsink - Tamb = P * SinkR exactly.
	die := power.Example16Core().Die()
	cfg := DefaultConfig(die, 1)
	cells := chipCells(t, cfg, 1)
	var total float64
	for _, w := range cells {
		total += w
	}
	r, err := Solve(cfg, stackMaps(cells, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.AmbientC + total*cfg.SinkR
	if !units.ApproxEqual(r.SinkC, want, 1e-6, 1e-9) {
		t.Errorf("sink temp %g, want %g", r.SinkC, want)
	}
}

func TestTemperatureMonotoneInLayers(t *testing.T) {
	die := power.Example16Core().Die()
	cfg := DefaultConfig(die, 1)
	cells := chipCells(t, cfg, 1)
	prev := 0.0
	for _, L := range []int{1, 2, 4, 8} {
		c := cfg
		c.Layers = L
		r, err := Solve(c, stackMaps(cells, L))
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxC <= prev {
			t.Errorf("hotspot must rise with layer count: %g at %d layers", r.MaxC, L)
		}
		prev = r.MaxC
	}
}

func TestHotspotFarthestFromSink(t *testing.T) {
	// With the sink on top, the bottom layer runs hottest.
	die := power.Example16Core().Die()
	cfg := DefaultConfig(die, 6)
	cells := chipCells(t, cfg, 1)
	r, err := Solve(cfg, stackMaps(cells, 6))
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxLayer != 0 {
		t.Errorf("hotspot in layer %d, want bottom layer 0", r.MaxLayer)
	}
}

func TestPaperEightLayerFeasibility(t *testing.T) {
	// Sec. 4.1: up to 8 layers of the 16-core processor stay below 100 C
	// with a conventional air-cooling solution; more layers exceed it.
	die := power.Example16Core().Die()
	cfg := DefaultConfig(die, 8)
	cells := chipCells(t, cfg, 1)
	n, err := MaxLayersUnder(cfg, cells, 100, 16)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Errorf("max layers under 100 C = %d, want 8 (paper)", n)
	}
	r, err := Solve(cfg, stackMaps(cells, 8))
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxC >= 100 || r.MaxC < 80 {
		t.Errorf("8-layer hotspot %g C, want just under 100", r.MaxC)
	}
}

func TestBetterCoolingLowersTemps(t *testing.T) {
	die := power.Example16Core().Die()
	cfg := DefaultConfig(die, 4)
	cells := chipCells(t, cfg, 1)
	base, err := Solve(cfg, stackMaps(cells, 4))
	if err != nil {
		t.Fatal(err)
	}
	better := cfg
	better.SinkR = cfg.SinkR / 4 // e.g. liquid cooling
	rb, err := Solve(better, stackMaps(cells, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rb.MaxC >= base.MaxC {
		t.Errorf("better sink %g should beat %g", rb.MaxC, base.MaxC)
	}
}

func TestHotBlockCreatesLocalHotspot(t *testing.T) {
	die := power.Example16Core().Die()
	cfg := DefaultConfig(die, 2)
	n := cfg.Nx * cfg.Ny
	cells := make([]float64, n)
	hot := (cfg.Ny/2)*cfg.Nx + cfg.Nx/2
	cells[hot] = 20 // 20 W point source
	r, err := Solve(cfg, stackMaps(cells, 2))
	if err != nil {
		t.Fatal(err)
	}
	corner := r.TempsC[0][0]
	center := r.TempsC[0][hot]
	if center <= corner {
		t.Errorf("hot cell %g should exceed corner %g", center, corner)
	}
}

func TestUniformPowerSymmetric(t *testing.T) {
	die := floorplan.Rect{W: 4e-3, H: 4e-3}
	cfg := DefaultConfig(die, 2)
	n := cfg.Nx * cfg.Ny
	cells := make([]float64, n)
	for i := range cells {
		cells[i] = 0.05
	}
	r, err := Solve(cfg, stackMaps(cells, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Four corners of each layer must match by symmetry.
	for l := 0; l < 2; l++ {
		c00 := r.TempsC[l][0]
		for _, idx := range []int{cfg.Nx - 1, (cfg.Ny - 1) * cfg.Nx, n - 1} {
			if math.Abs(r.TempsC[l][idx]-c00) > 1e-6 {
				t.Errorf("layer %d corner asymmetry: %g vs %g", l, r.TempsC[l][idx], c00)
			}
		}
	}
}

func TestSolveInputValidation(t *testing.T) {
	die := power.Example16Core().Die()
	cfg := DefaultConfig(die, 2)
	if _, err := Solve(cfg, stackMaps(make([]float64, 4), 2)); err == nil {
		t.Error("wrong cell count not caught")
	}
	if _, err := Solve(cfg, stackMaps(make([]float64, cfg.Nx*cfg.Ny), 3)); err == nil {
		t.Error("wrong layer count not caught")
	}
	bad := make([]float64, cfg.Nx*cfg.Ny)
	bad[3] = -1
	if _, err := Solve(cfg, stackMaps(bad, 2)); err == nil {
		t.Error("negative power not caught")
	}
}

func TestMicrochannelCoolsEveryLayer(t *testing.T) {
	die := power.Example16Core().Die()
	cfg := DefaultConfig(die, 8)
	cells := chipCells(t, cfg, 1)
	air, err := Solve(cfg, stackMaps(cells, 8))
	if err != nil {
		t.Fatal(err)
	}
	mcr, err := SolveMicrochannel(cfg, DefaultMicrochannel(), stackMaps(cells, 8))
	if err != nil {
		t.Fatal(err)
	}
	if mcr.MaxC >= air.MaxC-10 {
		t.Errorf("microchannel hotspot %.1f should be far below air %.1f", mcr.MaxC, air.MaxC)
	}
	// The bottom layer no longer dominates: per-layer spread collapses.
	spread := func(r *Result) float64 {
		lo, hi := 1e300, -1e300
		for l := range r.TempsC {
			var mean float64
			for _, v := range r.TempsC[l] {
				mean += v
			}
			mean /= float64(len(r.TempsC[l]))
			lo = math.Min(lo, mean)
			hi = math.Max(hi, mean)
		}
		return hi - lo
	}
	if spread(mcr) >= spread(air)/2 {
		t.Errorf("volumetric cooling should flatten the layer gradient: %.1f vs %.1f",
			spread(mcr), spread(air))
	}
}

func TestMicrochannelValidation(t *testing.T) {
	die := power.Example16Core().Die()
	cfg := DefaultConfig(die, 2)
	cells := chipCells(t, cfg, 1)
	bad := DefaultMicrochannel()
	bad.CellConvR = 0
	if _, err := SolveMicrochannel(cfg, bad, stackMaps(cells, 2)); err == nil {
		t.Error("invalid microchannel not caught")
	}
	if _, err := SolveMicrochannel(cfg, DefaultMicrochannel(), stackMaps(cells, 3)); err == nil {
		t.Error("layer mismatch not caught")
	}
}
