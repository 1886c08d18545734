package pdngrid

import (
	"bytes"
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/rescache"
)

// fuzzedConfig derives a Config from a tuple of raw fuzz inputs, mapping
// each input injectively onto one result-affecting field. Returning the
// derived values alongside lets the fuzz target decide whether two raw
// tuples landed on the same logical configuration.
type fuzzTuple struct {
	Kind     Kind
	Layers   int
	GridNx   int
	PadFrac  float64
	NConv    int
	FSwScale float64
	Solver   circuit.SolverKind
	Tol      float64
	RHS      int
}

func deriveTuple(kindRaw, layersRaw, gridRaw, nConvRaw, solverRaw uint8, padRaw, fswRaw, tolRaw, rhsRaw uint16) fuzzTuple {
	return fuzzTuple{
		Kind:     Kind(int(kindRaw) % 2),
		Layers:   1 + int(layersRaw)%8,
		GridNx:   4 + int(gridRaw)%29,
		PadFrac:  0.1 + float64(padRaw%900)/1000, // [0.1, 1.0)
		NConv:    1 + int(nConvRaw)%8,
		FSwScale: 0.5 + float64(fswRaw%400)/100, // [0.5, 4.5)
		Solver:   circuit.SolverKind(int(solverRaw) % 3),
		Tol:      1e-10 * float64(1+tolRaw%1000),
		RHS:      int(rhsRaw % 1200), // 0 (unset) through past the last edge
	}
}

func (ft fuzzTuple) config() Config {
	cfg := fpConfig()
	cfg.Kind = ft.Kind
	cfg.Layers = ft.Layers
	cfg.Params.GridNx = ft.GridNx
	cfg.PadPowerFraction = ft.PadFrac
	cfg.ConvertersPerCore = ft.NConv
	cfg.Converter.FSw *= ft.FSwScale
	cfg.Solve.Solver = ft.Solver
	cfg.Solve.Tol = ft.Tol
	cfg.Solve.RHS = ft.RHS
	return cfg
}

// sameLogicalConfig reports whether two tuples produce configurations the
// cache is allowed to treat as one entry. Converter-side knobs are not key
// material for the Regular PDN (no converters in the circuit), mirroring
// CacheFingerprint's documented contract.
func sameLogicalConfig(a, b fuzzTuple) bool {
	if a.Kind != b.Kind || a.Layers != b.Layers || a.GridNx != b.GridNx ||
		a.PadFrac != b.PadFrac || a.Solver != b.Solver || a.Tol != b.Tol || a.RHS != b.RHS {
		return false
	}
	if a.Kind == VoltageStacked && (a.NConv != b.NConv || a.FSwScale != b.FSwScale) {
		return false
	}
	return true
}

// FuzzCacheFingerprint drives the cache-keying contract from both sides:
// distinct result-affecting configurations must never collide to one key,
// and one configuration must always re-encode to the identical bytes (the
// cache's correctness rests on exactly these two properties — a collision
// serves a wrong result, an instability misses every warm cache).
func FuzzCacheFingerprint(f *testing.F) {
	f.Add(uint8(1), uint8(4), uint8(0), uint8(4), uint8(0), uint16(400), uint16(100), uint16(99), uint16(0),
		uint8(1), uint8(4), uint8(0), uint8(4), uint8(0), uint16(400), uint16(100), uint16(99), uint16(0))
	f.Add(uint8(0), uint8(2), uint8(5), uint8(1), uint8(2), uint16(100), uint16(50), uint16(1), uint16(11),
		uint8(1), uint8(2), uint8(5), uint8(1), uint8(2), uint16(100), uint16(50), uint16(1), uint16(11))
	f.Add(uint8(1), uint8(7), uint8(28), uint8(7), uint8(4), uint16(899), uint16(399), uint16(999), uint16(100),
		uint8(1), uint8(7), uint8(28), uint8(7), uint8(3), uint16(899), uint16(399), uint16(999), uint16(100))
	// Auto with and without RHS: both resolve to one kind on a small
	// mesh, but the key may not assume so.
	f.Add(uint8(1), uint8(4), uint8(0), uint8(4), uint8(0), uint16(400), uint16(100), uint16(99), uint16(0),
		uint8(1), uint8(4), uint8(0), uint8(4), uint8(0), uint16(400), uint16(100), uint16(99), uint16(11))
	f.Fuzz(func(t *testing.T,
		aKind, aLayers, aGrid, aNConv, aSolver uint8, aPad, aFsw, aTol, aRHS uint16,
		bKind, bLayers, bGrid, bNConv, bSolver uint8, bPad, bFsw, bTol, bRHS uint16) {
		ta := deriveTuple(aKind, aLayers, aGrid, aNConv, aSolver, aPad, aFsw, aTol, aRHS)
		tb := deriveTuple(bKind, bLayers, bGrid, bNConv, bSolver, bPad, bFsw, bTol, bRHS)

		encA1, err := rescache.CanonicalJSON(ta.config().CacheFingerprint())
		if err != nil {
			t.Fatalf("tuple A does not encode: %+v: %v", ta, err)
		}
		// Byte stability: re-deriving and re-encoding the same tuple must
		// reproduce the identical bytes (map ordering, float formatting).
		encA2, err := rescache.CanonicalJSON(ta.config().CacheFingerprint())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encA1, encA2) {
			t.Fatalf("unstable encoding for one config:\n%s\n%s", encA1, encA2)
		}

		encB, err := rescache.CanonicalJSON(tb.config().CacheFingerprint())
		if err != nil {
			t.Fatalf("tuple B does not encode: %+v: %v", tb, err)
		}
		keyA, err := rescache.Key("pdn-solve", ta.config().CacheFingerprint())
		if err != nil {
			t.Fatal(err)
		}
		keyB, err := rescache.Key("pdn-solve", tb.config().CacheFingerprint())
		if err != nil {
			t.Fatal(err)
		}

		if sameLogicalConfig(ta, tb) {
			if !bytes.Equal(encA1, encB) {
				t.Fatalf("equal configs encode differently:\nA %+v\nB %+v\n%s\n%s", ta, tb, encA1, encB)
			}
			if keyA != keyB {
				t.Fatalf("equal configs hash differently: %s vs %s", keyA, keyB)
			}
		} else {
			if bytes.Equal(encA1, encB) {
				t.Fatalf("distinct configs collide:\nA %+v\nB %+v\n%s", ta, tb, encA1)
			}
			if keyA == keyB {
				t.Fatalf("distinct configs collide on the hashed key: %s\nA %+v\nB %+v", keyA, ta, tb)
			}
		}
	})
}
