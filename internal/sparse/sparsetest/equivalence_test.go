// Cross-solver equivalence properties: every batch API must be
// bit-identical to its serial counterpart for every solver kind and worker
// count, and the AMG preconditioner must be residual-equivalent to IC(0)
// where both converge — and still converge where IC(0)'s iteration count
// blows past its cap.
package sparsetest

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/parallel"
	"voltstack/internal/pdngrid"
	"voltstack/internal/power"
	"voltstack/internal/sc"
	"voltstack/internal/sparse"
)

func bitEqual(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func mustBitEqual(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if i, ok := bitEqual(a, b); !ok {
		if i < 0 {
			t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
		}
		t.Fatalf("%s: bit mismatch at %d: %v vs %v", name, i, a[i], b[i])
	}
}

// matrices is the test population: each entry pairs a label with a
// generated SPD system.
func matrices() map[string]*sparse.CSR {
	return map[string]*sparse.CSR{
		"random-spd": RandomSPD(300, 4, 42),
		"grid2d":     Grid2D(18, 15, 1e-3),
		"grid3d":     Grid3D(7, 7, 6, 1e-3),
	}
}

// TestBatchSerialBitEqualityAcrossSolvers is the sparse-level property:
// SolveBatchWorkers/PCGBatch lane i ≡ serial Solve/PCG of RHS i, bitwise, for
// every factorization and preconditioner at workers 1, 2 and 8.
func TestBatchSerialBitEqualityAcrossSolvers(t *testing.T) {
	const k = 8
	for label, a := range matrices() {
		n := a.N()
		bs := RandomBatch(n, k, 1000)
		tol, maxIter := 1e-10, 20*n

		nd, err := sparse.FactorSparse(a, sparse.OrderND)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ic0, err := sparse.NewIC0(a)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		amg, err := sparse.NewAMG(a, sparse.AMGOptions{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}

		for _, workers := range []int{1, 2, 8} {
			prefix := fmt.Sprintf("%s workers=%d", label, workers)

			xs := nd.SolveBatchWorkers(bs, workers)
			for i := range bs {
				mustBitEqual(t, prefix+" sparse-chol", nd.Solve(bs[i]), xs[i])
			}
			for pname, prec := range map[string]sparse.Preconditioner{"ic0": ic0, "amg": amg, "jacobi": sparse.NewJacobi(a)} {
				xs, results, err := sparse.PCGBatch(a, bs, nil, prec, tol, maxIter, nil, workers)
				if err != nil {
					t.Fatalf("%s %s: %v", prefix, pname, err)
				}
				for i := range bs {
					ref, refRes, err := sparse.PCG(a, bs[i], nil, prec, tol, maxIter, nil)
					if err != nil {
						t.Fatalf("%s %s serial: %v", prefix, pname, err)
					}
					mustBitEqual(t, prefix+" "+pname, ref, xs[i])
					if results[i] != refRes {
						t.Fatalf("%s %s lane %d: %+v vs serial %+v", prefix, pname, i, results[i], refRes)
					}
				}
			}
		}
	}
}

// pdnResultsBitEqual compares every float field of two pdngrid Results
// bitwise.
func pdnResultsBitEqual(t *testing.T, name string, a, b *pdngrid.Result) {
	t.Helper()
	scalars := [][2]float64{
		{a.MaxIRDropFrac, b.MaxIRDropFrac},
		{a.MaxRiseFrac, b.MaxRiseFrac},
		{a.InputPower, b.InputPower},
		{a.LoadPower, b.LoadPower},
		{a.ConverterLoss, b.ConverterLoss},
		{a.WireLoss, b.WireLoss},
		{a.Efficiency, b.Efficiency},
		{a.MaxConverterCurrent, b.MaxConverterCurrent},
		{a.SolverResidual, b.SolverResidual},
	}
	for i, p := range scalars {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("%s: scalar %d: %v vs %v", name, i, p[0], p[1])
		}
	}
	if a.SolverIterations != b.SolverIterations || a.WorstLayer != b.WorstLayer || a.OverLimit != b.OverLimit {
		t.Fatalf("%s: diagnostics differ: %+v vs %+v",
			name,
			[3]any{a.SolverIterations, a.WorstLayer, a.OverLimit},
			[3]any{b.SolverIterations, b.WorstLayer, b.OverLimit})
	}
	mustBitEqual(t, name+" pads", a.PadCurrents, b.PadCurrents)
	mustBitEqual(t, name+" tsvs", a.TSVCurrents, b.TSVCurrents)
	mustBitEqual(t, name+" converters", a.ConverterCurrents, b.ConverterCurrents)
	if len(a.CellVoltages) != len(b.CellVoltages) {
		t.Fatalf("%s: layer count %d vs %d", name, len(a.CellVoltages), len(b.CellVoltages))
	}
	for l := range a.CellVoltages {
		mustBitEqual(t, fmt.Sprintf("%s layer %d", name, l), a.CellVoltages[l], b.CellVoltages[l])
	}
}

func vsTestConfig(kind circuit.SolverKind) pdngrid.Config {
	conv := sc.Default28nm()
	conv.Cap = sc.Trench
	prm := pdngrid.DefaultParams()
	prm.GridNx, prm.GridNy = 10, 10
	return pdngrid.Config{
		Kind:              pdngrid.VoltageStacked,
		Layers:            3,
		Chip:              power.Example16Core(),
		Params:            prm,
		TSV:               pdngrid.FewTSV(),
		PadPowerFraction:  0.5,
		ConvertersPerCore: 2,
		Converter:         conv,
		Solve:             circuit.SolveOptions{Solver: kind},
	}
}

// TestPDNSolveBatchMatchesSerialEverywhere is the system-level property:
// PDN.SolveBatch ≡ serial PDN.Solve per entry, bitwise, across all solver
// kinds × lane widths 1/2/8. The serial oracle runs on its own PDN
// instance so engine caching cannot couple the two paths.
func TestPDNSolveBatchMatchesSerialEverywhere(t *testing.T) {
	cores := power.Example16Core().NumCores()
	batch := [][][]float64{
		pdngrid.InterleavedActivities(3, cores, 0.65),
		pdngrid.UniformActivities(3, cores, 1),
		pdngrid.UniformActivities(3, cores, 0.4),
		pdngrid.InterleavedActivities(3, cores, 0.2),
	}
	kinds := map[string]circuit.SolverKind{
		"sparse-chol": circuit.DirectSparseND,
		"pcg-ic0":     circuit.PCGIC0,
		"pcg-jacobi":  circuit.PCGJacobi,
		"pcg-amg":     circuit.PCGAMG,
	}
	for kname, kind := range kinds {
		serial, err := pdngrid.New(vsTestConfig(kind))
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*pdngrid.Result, len(batch))
		for i, acts := range batch {
			if refs[i], err = serial.Solve(acts); err != nil {
				t.Fatalf("%s serial entry %d: %v", kname, i, err)
			}
		}
		for _, workers := range []string{"1", "2", "8"} {
			t.Setenv(parallel.EnvWorkers, workers)
			batched, err := pdngrid.New(vsTestConfig(kind))
			if err != nil {
				t.Fatal(err)
			}
			rs, err := batched.SolveBatch(batch)
			if err != nil {
				t.Fatalf("%s workers=%s: %v", kname, workers, err)
			}
			for i := range batch {
				pdnResultsBitEqual(t,
					fmt.Sprintf("%s workers=%s entry %d", kname, workers, i),
					refs[i], rs[i])
			}
		}
	}
}

// TestCircuitSolveBatchMatchesPreparedSerial pins the circuit layer
// directly: Prepared.SolveBatch lane i ≡ setRHS(i)+Prepared.Solve on the
// reused engine, and both ≡ Netlist.Solve (a cold engine) on a netlist
// built with lane i's loads, for a netlist with per-lane load variation.
func TestCircuitSolveBatchMatchesPreparedSerial(t *testing.T) {
	const nx, ny, k = 12, 12, 6
	amps := func(lane, load int) float64 { return 0.005 * float64(lane*7+load+1) }
	// build constructs the test mesh with lane's load currents baked in
	// (lane 0 is also the template the prepared engine compiles from).
	build := func(lane int) (*circuit.Netlist, []circuit.LoadID) {
		net := circuit.New()
		nodes := net.Nodes(nx * ny)
		idx := func(x, y int) int { return nodes[y*nx+x] }
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if x+1 < nx {
					net.AddResistor(idx(x, y), idx(x+1, y), 0.5)
				}
				if y+1 < ny {
					net.AddResistor(idx(x, y), idx(x, y+1), 0.5)
				}
			}
		}
		net.AddRailTie(idx(0, 0), 0.01, 1.0)
		net.AddRailTie(idx(nx-1, ny-1), 0.01, 1.0)
		var loads []circuit.LoadID
		for y := 2; y < ny; y += 3 {
			for x := 2; x < nx; x += 3 {
				li := len(loads)
				loads = append(loads, net.AddLoad(idx(x, y), circuit.Ground, amps(lane, li)))
			}
		}
		return net, loads
	}

	for _, kind := range []circuit.SolverKind{circuit.DirectSparseND, circuit.PCGIC0, circuit.PCGJacobi, circuit.PCGAMG} {
		net, loads := build(0)
		prep, err := net.Compile(circuit.SolveOptions{Solver: kind})
		if err != nil {
			t.Fatal(err)
		}
		setLane := func(i int) {
			for li, id := range loads {
				prep.SetLoad(id, amps(i, li))
			}
		}
		refs := make([][]float64, k)
		for i := 0; i < k; i++ {
			setLane(i)
			sol, err := prep.Solve(nil)
			if err != nil {
				t.Fatalf("kind %d serial lane %d: %v", kind, i, err)
			}
			refs[i] = append([]float64(nil), sol.Voltages()...)

			// Oracle: a cold engine on an identical netlist.
			cnet, _ := build(i)
			csol, err := cnet.Solve(circuit.SolveOptions{Solver: kind})
			if err != nil {
				t.Fatalf("kind %d cold lane %d: %v", kind, i, err)
			}
			mustBitEqual(t, fmt.Sprintf("kind %d cold-vs-reused lane %d", kind, i), csol.Voltages(), refs[i])
		}
		for _, workers := range []string{"1", "2", "8"} {
			t.Setenv(parallel.EnvWorkers, workers)
			sols, err := prep.SolveBatch(k, setLane)
			if err != nil {
				t.Fatalf("kind %d workers %s: %v", kind, workers, err)
			}
			for i := range sols {
				mustBitEqual(t, fmt.Sprintf("kind %d workers %s lane %d", kind, workers, i), refs[i], sols[i].Voltages())
			}
		}
	}
}

// TestAMGvsIC0ResidualEquivalence: on systems where both preconditioners
// converge, both must reach the same residual tolerance and agree on the
// solution to solver accuracy.
func TestAMGvsIC0ResidualEquivalence(t *testing.T) {
	for label, a := range matrices() {
		n := a.N()
		b := RandomRHS(n, 7)
		normB := sparse.Norm2(b)
		tol := 1e-10

		ic0, err := sparse.NewIC0(a)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		amg, err := sparse.NewAMG(a, sparse.AMGOptions{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		xIC, resIC, err := sparse.PCG(a, b, nil, ic0, tol, 20*n, nil)
		if err != nil {
			t.Fatalf("%s ic0: %v", label, err)
		}
		xMG, resMG, err := sparse.PCG(a, b, nil, amg, tol, 20*n, nil)
		if err != nil {
			t.Fatalf("%s amg: %v", label, err)
		}
		for name, res := range map[string]sparse.CGResult{"ic0": resIC, "amg": resMG} {
			if res.Residual > tol {
				t.Fatalf("%s %s: residual %g above tol", label, name, res.Residual)
			}
		}
		// Same linear system, same tolerance: solutions agree to solver
		// accuracy (scaled by the RHS).
		for i := range xIC {
			if d := math.Abs(xIC[i] - xMG[i]); d > 1e-6*math.Max(normB, 1) {
				t.Fatalf("%s: solutions diverge at %d: %v vs %v", label, i, xIC[i], xMG[i])
			}
		}
	}
}

// TestAMGConvergesWhereIC0ExceedsCap demonstrates the AMG regime: on a
// large low-leakage mesh with a tight iteration budget, IC(0)-PCG blows
// its cap while AMG-PCG converges comfortably — mesh-independent
// convergence is the whole point of the hierarchy.
func TestAMGConvergesWhereIC0ExceedsCap(t *testing.T) {
	if testing.Short() {
		t.Skip("large mesh")
	}
	a := Grid2D(120, 120, 1e-6)
	n := a.N()
	b := RandomRHS(n, 99)
	tol, cap := 1e-10, 60

	ic0, err := sparse.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	_, resIC, errIC := sparse.PCG(a, b, nil, ic0, tol, cap, nil)
	if !errors.Is(errIC, sparse.ErrNoConvergence) {
		t.Fatalf("expected IC(0)-PCG to exceed its %d-iteration cap, got err=%v res=%+v", cap, errIC, resIC)
	}
	amg, err := sparse.NewAMG(a, sparse.AMGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x, resMG, err := sparse.PCG(a, b, nil, amg, tol, cap, nil)
	if err != nil {
		t.Fatalf("AMG-PCG failed within the same cap: %v (%+v)", err, resMG)
	}
	if resMG.Iterations >= cap {
		t.Fatalf("AMG-PCG used the whole cap: %d", resMG.Iterations)
	}
	r := make([]float64, n)
	a.MulVec(x, r)
	sparse.Sub(b, r, r)
	if rel := sparse.Norm2(r) / sparse.Norm2(b); rel > 10*tol {
		t.Fatalf("AMG-PCG true residual %g", rel)
	}
}
