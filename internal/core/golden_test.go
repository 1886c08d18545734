package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Golden regression tests pin the reproduced paper numbers: Table 1,
// Table 2 and the Headlines summary are snapshotted as JSON under
// testdata/golden. Performance work (parallelism, solver changes) must
// not drift these values; a deliberate model change regenerates them
// with
//
//	go test ./internal/core -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/golden")

func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s — run `go test ./internal/core -run TestGolden -update` (%v)", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden snapshot.\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestGoldenTable1(t *testing.T) {
	checkGolden(t, "table1.json", NewStudy().Coarse().Table1())
}

func TestGoldenTable2(t *testing.T) {
	checkGolden(t, "table2.json", NewStudy().Coarse().Table2())
}

// TestGoldenTransientRenders pins the exact text the coarse transient
// experiments render. Their waveforms come from circuit.Transient, whose
// solver may move them at the 1e-12 level; the rendered numbers must not
// move, since SchemaVersion and the cache key assume identical bytes.
func TestGoldenTransientRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second transient runs")
	}
	for _, name := range []string{"ext-transient", "ext-decap-split"} {
		t.Run(name, func(t *testing.T) {
			got, err := RunExperiment(NewStudy().Coarse(), name, false)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file %s — run `go test ./internal/core -run TestGolden -update` (%v)", path, err)
			}
			if got != string(want) {
				t.Errorf("%s render drifted.\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}

func TestGoldenHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second figure pipeline")
	}
	h, err := NewStudy().Coarse().Headlines()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "headlines.json", h)
}
