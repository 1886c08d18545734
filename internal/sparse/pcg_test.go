package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// cooEntry is a (row, col) slot of a deterministic COO insertion sequence.
type cooEntry struct{ i, j int }

// testPattern returns a grid-shaped COO sequence with duplicate entries
// (the stamping discipline) plus nonzero values for every slot.
func testPattern(nx, ny int, rng *rand.Rand) (entries []cooEntry, vals []float64, n int) {
	n = nx * ny
	idx := func(x, y int) int { return y*nx + x }
	add := func(i, j int, v float64) {
		entries = append(entries, cooEntry{i, j})
		vals = append(vals, v)
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			add(i, i, 0.5+rng.Float64())
			if x+1 < nx {
				j := idx(x+1, y)
				g := 0.5 + rng.Float64()
				add(i, i, g)
				add(j, j, g)
				add(i, j, -g)
				add(j, i, -g)
			}
			if y+1 < ny {
				j := idx(x, y+1)
				g := 0.5 + rng.Float64()
				add(i, i, g)
				add(j, j, g)
				add(i, j, -g)
				add(j, i, -g)
			}
		}
	}
	return entries, vals, n
}

func buildFrom(entries []cooEntry, vals []float64, n int) *Builder {
	b := NewBuilder(n)
	for t, e := range entries {
		b.Add(e.i, e.j, vals[t])
	}
	return b
}

func sameFloats(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: entry %d differs bitwise: %v vs %v", name, i, a[i], b[i])
		}
	}
}

func TestPCGWorkspaceReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	entries, vals, n := testPattern(14, 10, rng)
	a := buildFrom(entries, vals, n).ToCSR()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	prec, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	xFresh, resFresh, err := PCG(a, b, nil, prec, 1e-10, 10*n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewPCGWorkspace(n)
	// Dirty the workspace with an unrelated solve, then repeat the solve:
	// the result must not depend on workspace history.
	if _, _, err := PCG(a, b, b, prec, 1e-10, 10*n, ws); err != nil {
		t.Fatal(err)
	}
	xWs, resWs, err := PCG(a, b, nil, prec, 1e-10, 10*n, ws)
	if err != nil {
		t.Fatal(err)
	}
	if resFresh.Iterations != resWs.Iterations {
		t.Fatalf("iterations %d vs %d", resFresh.Iterations, resWs.Iterations)
	}
	sameFloats(t, "x", xFresh, xWs)
}

func TestPCGBreakdownReportsCurrentResidual(t *testing.T) {
	// Symmetric indefinite matrix: CG must break down with pᵀAp ≤ 0 and
	// report the true residual of the iterate it returns.
	b2 := NewBuilder(2)
	b2.Add(0, 0, 1)
	b2.Add(1, 1, -1)
	a := b2.ToCSR()
	rhs := []float64{1, 1}
	x, res, err := PCG(a, rhs, nil, nil, 1e-12, 50, nil)
	if err == nil {
		t.Fatal("expected breakdown error on indefinite matrix")
	}
	ax := make([]float64, 2)
	a.MulVec(x, ax)
	Sub(rhs, ax, ax)
	want := Norm2(ax) / Norm2(rhs)
	if math.Float64bits(want) != math.Float64bits(res.Residual) {
		t.Fatalf("breakdown residual %v does not match recomputed %v", res.Residual, want)
	}
}
