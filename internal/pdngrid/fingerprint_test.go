package pdngrid

import (
	"encoding/json"
	"reflect"
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/power"
	"voltstack/internal/sc"
)

func fpConfig() Config {
	conv := sc.Default28nm()
	conv.Cap = sc.Trench
	return Config{
		Kind:              VoltageStacked,
		Layers:            4,
		Chip:              power.Example16Core(),
		Params:            DefaultParams(),
		TSV:               FewTSV(),
		PadPowerFraction:  0.5,
		ConvertersPerCore: 4,
		Converter:         conv,
	}
}

// Solver-affecting knobs must each change the fingerprint; equal configs
// must agree. (Byte-level key stability is pinned in rescache's golden
// test; here we check the field coverage contract.)
func TestCacheFingerprintSensitivity(t *testing.T) {
	base := fpConfig()
	if !reflect.DeepEqual(base.CacheFingerprint(), fpConfig().CacheFingerprint()) {
		t.Fatal("identical configs fingerprint differently")
	}
	mutations := map[string]func(*Config){
		"kind":       func(c *Config) { c.Kind = Regular },
		"layers":     func(c *Config) { c.Layers = 8 },
		"grid":       func(c *Config) { c.Params.GridNx = 16 },
		"tsv":        func(c *Config) { c.TSV = DenseTSV() },
		"pads":       func(c *Config) { c.PadPowerFraction = 1.0 },
		"converters": func(c *Config) { c.ConvertersPerCore = 8 },
		"fsw":        func(c *Config) { c.Converter.FSw *= 2 },
		"solver":     func(c *Config) { c.Solve.Solver = circuit.DirectSparseND },
		"tol":        func(c *Config) { c.Solve.Tol = 1e-6 },
		"maxiter":    func(c *Config) { c.Solve.MaxIter = 7 },
		"vdd":        func(c *Config) { c.Params.Vdd = 0.9 },
	}
	for name, mutate := range mutations {
		c := fpConfig()
		mutate(&c)
		if reflect.DeepEqual(c.CacheFingerprint(), base.CacheFingerprint()) {
			t.Errorf("%s: mutation did not change the fingerprint", name)
		}
	}
}

// Converter parameters are circuit elements only in the V-S PDN; a regular
// PDN's key must not churn when they change.
func TestCacheFingerprintRegularIgnoresConverter(t *testing.T) {
	a := fpConfig()
	a.Kind = Regular
	b := a
	b.Converter.FSw *= 2
	b.ConvertersPerCore = 99
	if !reflect.DeepEqual(a.CacheFingerprint(), b.CacheFingerprint()) {
		t.Error("regular-PDN fingerprint depends on unused converter parameters")
	}
}

// The fingerprint must stay JSON-serializable (the cache hashes its JSON
// encoding); an interface or function sneaking in would break keying.
func TestCacheFingerprintSerializable(t *testing.T) {
	if _, err := json.Marshal(fpConfig().CacheFingerprint()); err != nil {
		t.Fatalf("fingerprint not JSON-serializable: %v", err)
	}
}
