package pdngrid

// Content-addressed caching support: a PDN solve's result is a pure
// function of its Config (plus the activity vector and the code version),
// so a canonical serialization of every result-affecting Config field is
// a valid cache key component. CacheFingerprint is that serialization
// contract; DESIGN.md §11 documents what invalidates a cached result.

import "voltstack/internal/sc"

// CacheFingerprint returns a stable, canonically-serializable view of
// every configuration field that can change a solve's numerical result:
// the architecture (kind, layers, chip), the electrical parameters
// (Params, TSV topology, pad allocation), the converter model when one is
// in the circuit, and the linear-solver options (solver kind, tolerance,
// iteration budget).
//
// Fields that cannot affect results (the prepared-engine cache state, the
// worker count of a surrounding sweep) are deliberately absent, so cache
// hits survive performance-only reconfiguration. Encode the result with
// rescache.CanonicalJSON (or hash it via rescache.Key) — plain
// encoding/json does not guarantee cross-version byte stability.
func (c Config) CacheFingerprint() map[string]any {
	fp := map[string]any{
		"kind":               c.Kind.String(),
		"layers":             c.Layers,
		"chip":               c.Chip,
		"params":             c.Params,
		"tsv":                c.TSV,
		"pad_power_fraction": c.PadPowerFraction,
		"solve": map[string]any{
			"solver":   int(c.Solve.Solver),
			"tol":      c.Solve.Tol,
			"max_iter": c.Solve.MaxIter,
		},
	}
	// The converter only exists in the voltage-stacked circuit; keying the
	// regular PDN on converter parameters would miss cache hits for no
	// reason.
	if c.Kind == VoltageStacked {
		fp["converters_per_core"] = c.ConvertersPerCore
		fp["converter"] = converterFingerprint(c.Converter)
	}
	return fp
}

// converterFingerprint flattens sc.Params into plain data (the topology's
// multiplier vectors included — they set the output impedance).
func converterFingerprint(p sc.Params) map[string]any {
	return map[string]any{
		"topology":       p.Topo.Name,
		"ac":             p.Topo.AC,
		"ar":             p.Topo.AR,
		"ratio":          p.Topo.Ratio,
		"ctot":           p.Ctot,
		"fsw":            p.FSw,
		"gtot":           p.Gtot,
		"dcyc":           p.Dcyc,
		"interleave":     p.Interleave,
		"cap_tech":       int(p.Cap),
		"k_bottom_plate": p.KBottomPlate,
		"v_swing":        p.VSwing,
		"q_gate":         p.QGate,
		"v_gate":         p.VGate,
		"max_load":       p.MaxLoad,
	}
}
