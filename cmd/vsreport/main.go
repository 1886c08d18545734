// Command vsreport inspects and compares run provenance manifests written
// by the other binaries' -manifest flag, and follows solver-health trends
// across finished daemon jobs and CLI runs.
//
// Usage:
//
//	vsreport MANIFEST            show one manifest (summary to stdout)
//	vsreport A.json B.json       diff two manifests: config delta, metric
//	                             delta, and per-output hash match/mismatch
//	vsreport -json A.json B.json emit the structured diff as JSON
//	vsreport trend PATH...       per-group iteration and conditioning trends,
//	                             regressions flagged; a directory is read as
//	                             a vsserved -state-dir, a file as a manifest
//
// The exit status of a two-manifest diff reflects reproducibility: 0 when
// every output present in both runs hashed identically, 1 on any mismatch,
// 2 on usage or read errors. Two identical-seed runs of a deterministic
// binary must exit 0. `trend` mirrors that contract: 0 when no tracked
// metric regressed, 1 on any flagged regression, 2 on usage/read errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"voltstack/internal/telemetry"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the diff (or single-manifest view) as JSON")
	flag.Parse()

	args := flag.Args()
	if len(args) > 0 && args[0] == "trend" {
		cmdTrend(args[1:], *jsonOut)
		return
	}
	switch len(args) {
	case 1:
		m, err := telemetry.LoadManifest(args[0])
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(m)
			return
		}
		printManifest(m)
	case 2:
		a, err := telemetry.LoadManifest(args[0])
		if err != nil {
			fatal(err)
		}
		b, err := telemetry.LoadManifest(args[1])
		if err != nil {
			fatal(err)
		}
		d := telemetry.DiffManifests(a, b)
		if *jsonOut {
			emitJSON(d)
		} else {
			fmt.Print(d.Render())
		}
		if !d.OutputsMatch() {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: vsreport [-json] MANIFEST [MANIFEST]\n       vsreport trend [-json] [flags] STATE-DIR|MANIFEST...")
		os.Exit(2)
	}
}

func printManifest(m *telemetry.Manifest) {
	rev := m.VCSRevision
	if rev == "" {
		rev = "(no vcs stamp)"
	}
	fmt.Printf("%s  schema %d\n", m.Binary, m.Schema)
	fmt.Printf("  revision:  %s (modified: %v)\n", rev, m.VCSModified)
	fmt.Printf("  toolchain: %s %s/%s\n", m.GoVersion, m.OS, m.Arch)
	fmt.Printf("  started:   %s  wall %.1fs\n", m.StartTime, m.WallSeconds)
	if m.ExitError != "" {
		fmt.Printf("  FAILED:    %s\n", m.ExitError)
	}
	fmt.Printf("  args:      %v\n", m.Args)
	if len(m.Seeds) > 0 {
		fmt.Printf("  seeds:\n")
		for _, k := range sortedKeys(m.Seeds) {
			fmt.Printf("    %s = %d\n", k, m.Seeds[k])
		}
	}
	fmt.Printf("  outputs:\n")
	if len(m.Outputs) == 0 {
		fmt.Printf("    (none recorded)\n")
	}
	for _, o := range m.Outputs {
		status := fmt.Sprintf("sha256 %s (%d bytes)", o.SHA256, o.Bytes)
		if o.Missing {
			status = "MISSING"
		}
		loc := ""
		if o.Path != "" {
			loc = "  " + o.Path
		}
		fmt.Printf("    %-10s %s%s\n", o.Name, status, loc)
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vsreport:", err)
	os.Exit(2)
}
