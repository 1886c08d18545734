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

func TestToCSRIndexedMatchesToCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	entries, vals, n := testPattern(9, 7, rng)
	m1 := buildFrom(entries, vals, n).ToCSR()
	m2, am := buildFrom(entries, vals, n).ToCSRIndexed()
	if m1.NNZ() != m2.NNZ() {
		t.Fatalf("nnz %d vs %d", m1.NNZ(), m2.NNZ())
	}
	for i := 0; i <= n; i++ {
		if m1.rowPtr[i] != m2.rowPtr[i] {
			t.Fatalf("rowPtr[%d] differs", i)
		}
	}
	for k := range m1.col {
		if m1.col[k] != m2.col[k] {
			t.Fatalf("col[%d] differs", k)
		}
	}
	sameFloats(t, "val", m1.val, m2.val)

	// Fold with the same values reproduces the CSR values bit-exactly.
	out := make([]float64, m2.NNZ())
	am.Fold(vals, out)
	sameFloats(t, "fold-identity", m1.val, out)

	// Fold after a perturbation matches a from-scratch conversion.
	vals2 := append([]float64(nil), vals...)
	for t := range vals2 {
		if t%3 == 0 {
			vals2[t] *= 1.0 + 0.25*rng.Float64()
		}
	}
	fresh := buildFrom(entries, vals2, n).ToCSR()
	am.Fold(vals2, out)
	sameFloats(t, "fold-perturbed", fresh.val, out)
}

func TestSparseCholRefactorMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	entries, vals, n := testPattern(13, 9, rng)
	for _, ord := range []Ordering{OrderND, OrderNatural} {
		a := buildFrom(entries, vals, n).ToCSR()
		fresh, err := FactorSparse(a, ord)
		if err != nil {
			t.Fatal(err)
		}
		sym, err := NewSparseCholSymbolic(a, ord)
		if err != nil {
			t.Fatal(err)
		}
		f, err := sym.Refactor(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, "diag", fresh.diag, f.diag)
		for j := 0; j < n; j++ {
			sameFloats(t, "colVal", fresh.colVal[j], f.colVal[j])
		}

		vals2 := append([]float64(nil), vals...)
		for t := range vals2 {
			vals2[t] *= 0.8
		}
		a2 := buildFrom(entries, vals2, n).ToCSR()
		fresh2, err := FactorSparse(a2, ord)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sym.Refactor(a2, f); err != nil {
			t.Fatal(err)
		}
		sameFloats(t, "rediag", fresh2.diag, f.diag)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		sameFloats(t, "solve", fresh2.Solve(b), f.Solve(b))
	}
}

func TestIC0FactorMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	entries, vals, n := testPattern(16, 12, rng)
	a := buildFrom(entries, vals, n).ToCSR()
	fresh, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := NewIC0Symbolic(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sym.Factor(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "lower", fresh.lower.val, p.lower.val)
	sameFloats(t, "upper", fresh.upper.val, p.upper.val)
	sameFloats(t, "scale", fresh.scale, p.scale)

	vals2 := append([]float64(nil), vals...)
	for t := range vals2 {
		vals2[t] *= 1.5
	}
	a2 := buildFrom(entries, vals2, n).ToCSR()
	fresh2, err := NewIC0(a2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sym.Factor(a2, p); err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "relower", fresh2.lower.val, p.lower.val)
	sameFloats(t, "reupper", fresh2.upper.val, p.upper.val)

	r := make([]float64, n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	z1 := make([]float64, n)
	z2 := make([]float64, n)
	fresh2.Apply(r, z1)
	p.Apply(r, z2)
	sameFloats(t, "apply", z1, z2)
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
	xFresh, resFresh, err := PCG(a, b, nil, prec, 1e-10, 10*n)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewPCGWorkspace(n)
	// Dirty the workspace with an unrelated solve, then repeat the solve:
	// the result must not depend on workspace history.
	if _, _, err := PCGW(a, b, b, prec, 1e-10, 10*n, ws); err != nil {
		t.Fatal(err)
	}
	xWs, resWs, err := PCGW(a, b, nil, prec, 1e-10, 10*n, ws)
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
	x, res, err := CG(a, rhs, nil, 1e-12, 50)
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
