package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestAMGHierarchyCoarsens(t *testing.T) {
	a := gridLaplacian(60, 60, 1e-3)
	p, err := NewAMG(a, AMGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Levels() < 3 {
		t.Fatalf("expected a multi-level hierarchy for n=%d, got %d levels", a.N(), p.Levels())
	}
	if p.CoarseN() > 64 {
		t.Fatalf("coarsest level has %d unknowns, want <= 64", p.CoarseN())
	}
	// Levels should shrink monotonically (pairwise aggregation roughly
	// halves each level).
	for ell := 1; ell < len(p.ns); ell++ {
		if p.ns[ell] >= p.ns[ell-1] {
			t.Fatalf("level %d did not coarsen: %v", ell, p.ns)
		}
	}
}

func TestAMGTinyMatrixIsDirectSolve(t *testing.T) {
	a := gridLaplacian(4, 4, 1e-3)
	p, err := NewAMG(a, AMGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Levels() != 1 {
		t.Fatalf("n=16 <= CoarseSize should factor directly, got %d levels", p.Levels())
	}
	// With no smoothing levels, Apply is an exact solve.
	b := []float64{1, 0, 0, -2, 0, 3, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1}
	z := make([]float64, a.N())
	p.Apply(b, z)
	if r := residual(a, z, b); r > 1e-9 {
		t.Fatalf("direct-solve Apply residual %g", r)
	}
}

func TestAMGPreconditionedCGConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := gridLaplacian(50, 50, 1e-4)
	b := randVec(a.N(), rng)
	p, err := NewAMG(a, AMGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x, res, err := PCG(a, b, nil, p, 1e-10, 200, nil)
	if err != nil {
		t.Fatalf("AMG-PCG failed: %v (iters=%d res=%g)", err, res.Iterations, res.Residual)
	}
	if r := residual(a, x, b); r > 1e-6*NormInf(b) {
		t.Fatalf("residual too large: %g", r)
	}
	// The point of AMG is mesh-independent iteration counts; on a 2500-node
	// grid the count should be far below the unpreconditioned hundreds.
	if res.Iterations > 60 {
		t.Fatalf("AMG-PCG took %d iterations, expected mesh-independent convergence", res.Iterations)
	}
}

func TestAMGApplyIsDeterministicAndForkSafe(t *testing.T) {
	a := gridLaplacian(30, 30, 1e-3)
	p, err := NewAMG(a, AMGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	r := randVec(a.N(), rng)
	z1 := make([]float64, a.N())
	z2 := make([]float64, a.N())
	p.Apply(r, z1)
	p.Apply(r, z2)
	for i := range z1 {
		if math.Float64bits(z1[i]) != math.Float64bits(z2[i]) {
			t.Fatalf("Apply not deterministic at %d: %v vs %v", i, z1[i], z2[i])
		}
	}
	// A scratch fork must produce bit-identical applications.
	fork := p.forkScratch()
	z3 := make([]float64, a.N())
	fork.Apply(r, z3)
	for i := range z1 {
		if math.Float64bits(z1[i]) != math.Float64bits(z3[i]) {
			t.Fatalf("forked Apply differs at %d: %v vs %v", i, z1[i], z3[i])
		}
	}
}

func TestAMGSymmetryForPCG(t *testing.T) {
	// PCG requires a symmetric preconditioner: check ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩
	// for random vectors (equal pre/post Jacobi sweeps make the V-cycle
	// symmetric).
	a := gridLaplacian(20, 20, 1e-3)
	p, err := NewAMG(a, AMGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	n := a.N()
	for trial := 0; trial < 5; trial++ {
		u, v := randVec(n, rng), randVec(n, rng)
		mu, mv := make([]float64, n), make([]float64, n)
		p.Apply(u, mu)
		p.Apply(v, mv)
		lhs, rhs := Dot(mu, v), Dot(u, mv)
		scale := math.Max(math.Abs(lhs), math.Abs(rhs))
		if math.Abs(lhs-rhs) > 1e-10*math.Max(scale, 1) {
			t.Fatalf("V-cycle not symmetric: ⟨Mu,v⟩=%g ⟨u,Mv⟩=%g", lhs, rhs)
		}
	}
}

func TestAMGRejectsNonPositiveDiagonal(t *testing.T) {
	b := NewBuilder(200)
	for i := 0; i < 200; i++ {
		b.Add(i, i, -1)
	}
	if _, err := NewAMG(b.ToCSR(), AMGOptions{CoarseSize: 8}); err == nil {
		t.Fatal("expected error for non-positive diagonal")
	}
}

func TestAMGPrecNameInTrace(t *testing.T) {
	a := gridLaplacian(10, 10, 1e-3)
	p, err := NewAMG(a, AMGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := precName(p); got != "amg" {
		t.Fatalf("precName(AMGPrec) = %q, want amg", got)
	}
}
