package floorplan

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"voltstack/internal/units"
)

func TestRectBasics(t *testing.T) {
	r := Rect{1, 2, 3, 4}
	if r.Area() != 12 {
		t.Errorf("Area = %g", r.Area())
	}
	if !r.Contains(1, 2) || !r.Contains(3.9, 5.9) {
		t.Error("Contains lower/inner point failed")
	}
	if r.Contains(4, 2) || r.Contains(1, 6) {
		t.Error("Contains should exclude upper/right edges")
	}
	cx, cy := r.Center()
	if cx != 2.5 || cy != 4 {
		t.Errorf("Center = %g, %g", cx, cy)
	}
}

func TestOverlapArea(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	cases := []struct {
		b    Rect
		want float64
	}{
		{Rect{1, 1, 2, 2}, 1},
		{Rect{0, 0, 2, 2}, 4},
		{Rect{2, 0, 1, 1}, 0},
		{Rect{-1, -1, 1, 1}, 0},
		{Rect{0.5, 0.5, 1, 1}, 1},
	}
	for _, c := range cases {
		if got := a.OverlapArea(c.b); !units.ApproxEqual(got, c.want, 1e-12, 1e-12) {
			t.Errorf("overlap %+v = %g, want %g", c.b, got, c.want)
		}
		if got := c.b.OverlapArea(a); !units.ApproxEqual(got, c.want, 1e-12, 1e-12) {
			t.Error("overlap not symmetric")
		}
	}
}

func coreUnits() []Unit {
	return []Unit{
		{"ifu", 0.18},
		{"dcache", 0.16},
		{"exu", 0.14},
		{"fpu", 0.20},
		{"lsu", 0.12},
		{"rob", 0.08},
		{"l2slice", 0.12},
	}
}

func TestSliceAreasProportional(t *testing.T) {
	die := Rect{0, 0, 2e-3, 1.5e-3}
	unitsIn := coreUnits()
	blocks, err := Slice(die, unitsIn)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != len(unitsIn) {
		t.Fatalf("placed %d blocks, want %d", len(blocks), len(unitsIn))
	}
	var totalShare float64
	for _, u := range unitsIn {
		totalShare += u.AreaShare
	}
	for i, b := range blocks {
		want := die.Area() * unitsIn[i].AreaShare / totalShare
		if !units.WithinRel(b.Rect.Area(), want, 1e-9) {
			t.Errorf("block %s area = %g, want %g", b.Name, b.Rect.Area(), want)
		}
	}
}

func TestSliceCoversDieWithoutOverlap(t *testing.T) {
	die := Rect{0, 0, 1, 1}
	blocks, err := Slice(die, coreUnits())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i, a := range blocks {
		sum += a.Rect.Area()
		for j := i + 1; j < len(blocks); j++ {
			if ov := a.Rect.OverlapArea(blocks[j].Rect); ov > 1e-12 {
				t.Errorf("blocks %s and %s overlap by %g", a.Name, blocks[j].Name, ov)
			}
		}
	}
	if !units.WithinRel(sum, die.Area(), 1e-9) {
		t.Errorf("blocks cover %g of %g", sum, die.Area())
	}
}

func TestSliceAspectRatiosBounded(t *testing.T) {
	die := Rect{0, 0, 2.35e-3, 2.35e-3}
	blocks, err := Slice(die, coreUnits())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		ar := b.Rect.W / b.Rect.H
		if ar < 1 {
			ar = 1 / ar
		}
		if ar > 8 {
			t.Errorf("block %s aspect ratio %g too extreme", b.Name, ar)
		}
	}
}

func TestSliceErrors(t *testing.T) {
	if _, err := Slice(Rect{0, 0, 1, 1}, nil); err == nil {
		t.Error("empty unit list should error")
	}
	if _, err := Slice(Rect{0, 0, 1, 1}, []Unit{{"a", 0}}); err == nil {
		t.Error("zero share should error")
	}
	if _, err := Slice(Rect{0, 0, 0, 1}, []Unit{{"a", 1}}); err == nil {
		t.Error("degenerate die should error")
	}
}

func TestSlicePropertyRandomShares(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		us := make([]Unit, n)
		var total float64
		for i := range us {
			us[i] = Unit{Name: "u", AreaShare: 0.05 + rng.Float64()}
			total += us[i].AreaShare
		}
		die := Rect{0, 0, 1 + rng.Float64(), 1 + rng.Float64()}
		blocks, err := Slice(die, us)
		if err != nil {
			return false
		}
		var sum float64
		for i, b := range blocks {
			if !units.WithinRel(b.Rect.Area(), die.Area()*us[i].AreaShare/total, 1e-6) {
				return false
			}
			sum += b.Rect.Area()
		}
		return units.WithinRel(sum, die.Area(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTile16Cores(t *testing.T) {
	// The paper's 16-core single layer: 44.12 mm².
	side := math.Sqrt(44.12e-6)
	die := Rect{0, 0, side, side}
	fp, err := Tile(die, 4, 4, coreUnits(), "core")
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Tiles) != 16 {
		t.Fatalf("tiles = %d", len(fp.Tiles))
	}
	if len(fp.Blocks) != 16*len(coreUnits()) {
		t.Fatalf("blocks = %d", len(fp.Blocks))
	}
	if !strings.HasPrefix(fp.Blocks[0].Name, "core0.") {
		t.Errorf("block name = %q", fp.Blocks[0].Name)
	}
	// Every tile has the same area.
	for _, tile := range fp.Tiles {
		if !units.WithinRel(tile.Area(), die.Area()/16, 1e-9) {
			t.Errorf("tile area %g", tile.Area())
		}
	}
}

func TestTileOf(t *testing.T) {
	fp, err := Tile(Rect{0, 0, 4, 4}, 2, 2, []Unit{{"u", 1}}, "c")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x, y float64
		want int
	}{
		{0.5, 0.5, 0},
		{2.5, 0.5, 1},
		{0.5, 2.5, 2},
		{3.5, 3.5, 3},
		{-1, 0, -1},
	}
	for _, c := range cases {
		if got := fp.TileOf(c.x, c.y); got != c.want {
			t.Errorf("TileOf(%g,%g) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestTileInvalid(t *testing.T) {
	if _, err := Tile(Rect{0, 0, 1, 1}, 0, 4, coreUnits(), "c"); err == nil {
		t.Error("0 rows should error")
	}
}

func TestRasterDistributeConservesTotal(t *testing.T) {
	die := Rect{0, 0, 1, 1}
	blocks, err := Slice(die, coreUnits())
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, len(blocks))
	var total float64
	for i := range values {
		values[i] = float64(i + 1)
		total += values[i]
	}
	r := NewRaster(die, 13, 7) // deliberately non-aligned resolution
	cells, err := r.Distribute(blocks, values)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range cells {
		if c < 0 {
			t.Error("negative cell value")
		}
		sum += c
	}
	if !units.WithinRel(sum, total, 1e-9) {
		t.Errorf("raster total = %g, want %g", sum, total)
	}
}

func TestRasterUniformBlockUniformCells(t *testing.T) {
	die := Rect{0, 0, 1, 1}
	r := NewRaster(die, 4, 4)
	cells, err := r.Distribute([]Block{{"all", die}}, []float64{16})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if !units.WithinRel(c, 1, 1e-9) {
			t.Errorf("cell %d = %g, want 1", i, c)
		}
	}
}

func TestRasterLocalizedBlock(t *testing.T) {
	die := Rect{0, 0, 1, 1}
	r := NewRaster(die, 2, 2)
	// Block exactly covering the top-right quadrant.
	cells, err := r.Distribute([]Block{{"hot", Rect{0.5, 0.5, 0.5, 0.5}}}, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if cells[r.Index(1, 1)] != 7 {
		t.Errorf("hot cell = %g", cells[r.Index(1, 1)])
	}
	for _, idx := range []int{r.Index(0, 0), r.Index(1, 0), r.Index(0, 1)} {
		if cells[idx] != 0 {
			t.Errorf("cold cell %d = %g", idx, cells[idx])
		}
	}
}

func TestRasterCellOfClamped(t *testing.T) {
	r := NewRaster(Rect{0, 0, 1, 1}, 10, 10)
	if ix, iy := r.CellOf(-5, -5); ix != 0 || iy != 0 {
		t.Errorf("clamp low = %d,%d", ix, iy)
	}
	if ix, iy := r.CellOf(5, 5); ix != 9 || iy != 9 {
		t.Errorf("clamp high = %d,%d", ix, iy)
	}
	if ix, iy := r.CellOf(0.55, 0.25); ix != 5 || iy != 2 {
		t.Errorf("CellOf = %d,%d", ix, iy)
	}
}

func TestRasterMismatchedValues(t *testing.T) {
	r := NewRaster(Rect{0, 0, 1, 1}, 2, 2)
	if _, err := r.Distribute([]Block{{"a", Rect{0, 0, 1, 1}}}, nil); err == nil {
		t.Error("length mismatch should error")
	}
}
