// Cross-solver equivalence properties: solves run concurrently against one
// shared factor, preconditioner or engine must be bit-identical to their
// serial counterparts for every solver kind and goroutine count, and
// AMG-PCG must converge on a large mesh within an iteration cap far below
// the mesh diameter.
package sparsetest

import (
	"context"
	"fmt"
	"math"
	"reflect"
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

// sameResult reports whether two solves agree in iteration count and
// residual and produced equal convergence reports.
func sameResult(a, b sparse.CGResult) bool {
	return a.Iterations == b.Iterations && a.Residual == b.Residual && reflect.DeepEqual(a.Health, b.Health)
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

// concurrently runs fn(0) … fn(k-1) on the given number of goroutines,
// which share everything fn closes over, and waits for all of them.
func concurrently(workers, k int, fn func(i int)) {
	_ = parallel.NewPool(workers).ForEachN(context.Background(), k, func(i int) error {
		fn(i)
		return nil
	})
}

// TestBatchSerialBitEqualityAcrossSolvers is the sparse-level property: a
// batch of right-hand sides solved by 1, 2 and 8 goroutines sharing one
// factorization or preconditioner ≡ serial Solve/PCG of each right-hand
// side, bitwise in x and CGResult, for the nested-dissection factor and
// the identity and AMG preconditioners.
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
		amg, err := sparse.NewAMG(a)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		precs := map[string]sparse.Preconditioner{"identity": sparse.IdentityPrec{}, "amg": amg}

		for _, workers := range []int{1, 2, 8} {
			prefix := fmt.Sprintf("%s workers=%d", label, workers)

			xs := make([][]float64, k)
			concurrently(workers, k, func(i int) { xs[i] = nd.Solve(bs[i]) })
			for i := range bs {
				mustBitEqual(t, prefix+" sparse-chol", nd.Solve(bs[i]), xs[i])
			}
			for pname, prec := range precs {
				results := make([]sparse.CGResult, k)
				errs := make([]error, k)
				concurrently(workers, k, func(i int) {
					xs[i], results[i], errs[i] = sparse.PCG(a, bs[i], nil, prec, tol, maxIter, nil)
				})
				for i := range bs {
					if errs[i] != nil {
						t.Fatalf("%s %s lane %d: %v", prefix, pname, i, errs[i])
					}
					ref, refRes, err := sparse.PCG(a, bs[i], nil, prec, tol, maxIter, nil)
					if err != nil {
						t.Fatalf("%s %s serial: %v", prefix, pname, err)
					}
					mustBitEqual(t, prefix+" "+pname, ref, xs[i])
					if !sameResult(results[i], refRes) {
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
// directly: for every solver kind, lane i's load currents solved by 1, 2
// and 8 goroutines sharing one Prepared engine ≡ Netlist.Solve (a cold
// engine) on a netlist built with lane i's loads.
func TestCircuitSolveBatchMatchesPreparedSerial(t *testing.T) {
	const nx, ny, k = 12, 12, 6
	amps := func(lane, load int) float64 { return 0.005 * float64(lane*7+load+1) }
	// build constructs the test mesh with lane's load currents baked in
	// (lane 0 is also the template the shared engine compiles from).
	build := func(lane int) (*circuit.Netlist, []float64) {
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
		var loads []float64
		for y := 2; y < ny; y += 3 {
			for x := 2; x < nx; x += 3 {
				loads = append(loads, amps(lane, len(loads)))
				net.AddLoad(idx(x, y), circuit.Ground, loads[len(loads)-1])
			}
		}
		return net, loads
	}

	for _, kind := range []circuit.SolverKind{circuit.DirectSparseND, circuit.PCGAMG} {
		net, _ := build(0)
		prep, err := net.Compile(circuit.SolveOptions{Solver: kind}, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*circuit.Solution, k)
		lanes := make([][]float64, k)
		for i := range refs {
			// Oracle: a cold engine on a netlist holding lane i's loads.
			var cnet *circuit.Netlist
			cnet, lanes[i] = build(i)
			if refs[i], err = cnet.Solve(circuit.SolveOptions{Solver: kind}); err != nil {
				t.Fatalf("kind %d cold lane %d: %v", kind, i, err)
			}
		}
		for _, workers := range []int{1, 2, 8} {
			sols := make([]*circuit.Solution, k)
			errs := make([]error, k)
			concurrently(workers, k, func(i int) { sols[i], errs[i] = prep.Solve(lanes[i], nil) })
			for i := range sols {
				name := fmt.Sprintf("kind %d workers %d lane %d", kind, workers, i)
				if errs[i] != nil {
					t.Fatalf("%s: %v", name, errs[i])
				}
				mustBitEqual(t, name, refs[i].Voltages(), sols[i].Voltages())
				if sols[i].Iterations != refs[i].Iterations ||
					math.Float64bits(sols[i].Residual) != math.Float64bits(refs[i].Residual) ||
					math.Float64bits(sols[i].TotalLoadPower()) != math.Float64bits(refs[i].TotalLoadPower()) {
					t.Fatalf("%s: iterations/residual/load power differ from the cold engine's", name)
				}
			}
		}
	}
}

// TestAMGConvergesWithinIterationCap demonstrates the AMG regime: on a
// large low-leakage mesh, AMG-PCG converges well inside an iteration
// budget of 60, about half the mesh's 120-node side — mesh-independent
// convergence is the whole point of the hierarchy.
func TestAMGConvergesWithinIterationCap(t *testing.T) {
	if testing.Short() {
		t.Skip("large mesh")
	}
	a := Grid2D(120, 120, 1e-6)
	n := a.N()
	b := RandomRHS(n, 99)
	tol, cap := 1e-10, 60

	amg, err := sparse.NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	x, resMG, err := sparse.PCG(a, b, nil, amg, tol, cap, nil)
	if err != nil {
		t.Fatalf("AMG-PCG failed within the cap: %v (%+v)", err, resMG)
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
