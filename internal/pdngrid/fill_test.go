package pdngrid

import (
	"fmt"
	"runtime"
	"testing"

	"voltstack/internal/sparse"
)

// transientNet assembles p's transient network: on-die decap at every
// cell plus package inductance. Its step matrix,
// net.Matrix(DefaultTransient().DT), is the one every step of
// SolveTransient solves against; load currents do not enter it.
func transientNet(p *PDN) *assembled {
	tc := DefaultTransient()
	return p.assemble(&dynSpec{
		cellAmps:     make([]float64, p.nCells),
		decapPerCell: tc.DecapPerArea * p.raster.Die.W * p.raster.Die.H / float64(p.nCells),
		pkgL:         tc.PkgL,
	})
}

// TestNDFillPinned pins nnz(L) of the nested-dissection factor on the
// hub-bearing PDN matrices the coarse experiments factor. The two
// board-side package nodes are tied to every C4 pad; unless the ordering
// numbers them last, the V-S factors exceed these bounds by 1.3–2×.
func TestNDFillPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		step bool
		max  int
	}{
		{"vs-16x16x8-dc", vsCfg(8, 8), false, 420_000},
		{"vs-16x16x4-2conv-step", vsCfg(4, 2), true, 140_000},
		{"vs-16x16x4-4conv-step", vsCfg(4, 4), true, 140_000},
		{"vs-16x16x4-6conv-step", vsCfg(4, 6), true, 140_000},
		{"vs-16x16x4-8conv-step", vsCfg(4, 8), true, 140_000},
		{"reg-16x16x8-dc", regularCfg(8, FewTSV()), false, 210_000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := p.assemble(nil).net.Matrix(0)
			if c.step {
				m = transientNet(p).net.Matrix(DefaultTransient().DT)
			}
			f, err := sparse.FactorSparse(m, sparse.OrderND)
			if err != nil {
				t.Fatal(err)
			}
			if f.NNZ() > c.max {
				t.Errorf("nnz(L) = %d, want <= %d", f.NNZ(), c.max)
			}
		})
	}
}

// TestFactorSparseAllocBudget holds FactorSparse's allocation on the
// coarse V-S 16×16×8 DC matrix to twice the factor it returns (12 bytes
// per nnz(L) entry: an int32 row index and a float64 value). The
// ordering, the symbolic phase and the numeric phase's work arrays must fit
// in the other half.
func TestFactorSparseAllocBudget(t *testing.T) {
	p, err := New(vsCfg(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	m := p.assemble(nil).net.Matrix(0)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := sparse.FactorSparse(m, sparse.OrderND)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(2*12*f.NNZ())
	t.Logf("FactorSparse allocated %.2f MB for nnz(L) = %d (budget %.2f MB)", float64(alloc)/1e6, f.NNZ(), float64(budget)/1e6)
	if alloc > budget {
		t.Errorf("FactorSparse allocated %d bytes, over the budget of %d (2 × 12 bytes × nnz(L) %d)", alloc, budget, f.NNZ())
	}
}

// ndDenseFloor is the floor of nested dissection's dense-row limit
// max(32, 8·(nnz/n + 1)): a vertex of higher degree is numbered last, so
// no mesh vertex may exceed it.
const ndDenseFloor = 32

// TestNDHubRuleSparesMeshVertices checks, at the edges request validation
// admits (2 and 16 layers, 1 and 16 converters per core, pad fractions
// 0.05 and 1) on meshes 4×4, 4×64 and 64×64, that every row of the DC and
// transient step matrices except the two board nodes stays at or below
// the dense-row floor, so only the package hubs are ordered last.
func TestNDHubRuleSparesMeshVertices(t *testing.T) {
	if testing.Short() {
		t.Skip("assembles 64×64×16 networks")
	}
	for _, kind := range []Kind{Regular, VoltageStacked} {
		for _, layers := range []int{2, 16} {
			for _, mesh := range [][2]int{{4, 4}, {4, 64}, {64, 64}} {
				for _, conv := range []int{1, 16} {
					if kind == Regular && conv > 1 {
						continue // converters only apply to V-S
					}
					for _, pads := range []float64{0.05, 1} {
						cfg := vsCfg(layers, conv)
						if kind == Regular {
							cfg = regularCfg(layers, FewTSV())
						}
						cfg.Params.GridNx, cfg.Params.GridNy = mesh[0], mesh[1]
						cfg.PadPowerFraction = pads
						name := fmt.Sprintf("%v-l%d-%dx%d-c%d-p%g", kind, layers, mesh[0], mesh[1], conv, pads)
						t.Run(name, func(t *testing.T) {
							p, err := New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							dc, tr := p.assemble(nil), transientNet(p)
							checkMeshDegrees(t, "dc", dc.net.Matrix(0), dc.vddBoard, dc.gndBoard)
							checkMeshDegrees(t, "step", tr.net.Matrix(DefaultTransient().DT), tr.vddBoard, tr.gndBoard)
						})
					}
				}
			}
		}
	}
}

func checkMeshDegrees(t *testing.T, label string, m *sparse.CSR, vddBoard, gndBoard int) {
	t.Helper()
	for i := 0; i < m.N(); i++ {
		if i == vddBoard || i == gndBoard {
			continue
		}
		deg := 0
		m.Row(i, func(j int, _ float64) {
			if j != i {
				deg++
			}
		})
		if deg > ndDenseFloor {
			t.Fatalf("%s: row %d has %d off-diagonal entries, above the dense-row floor %d", label, i, deg, ndDenseFloor)
		}
	}
}
