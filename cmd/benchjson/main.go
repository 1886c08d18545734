// Command benchjson turns `go test -bench` output on stdin into a JSON
// report on stdout, pairing Serial/Batch benchmark variants and computing
// their speedups. It backs the `make bench-solve` target:
//
//	go test -bench '^BenchmarkSolve' -run '^$' . | go run ./cmd/benchjson > BENCH_solve.json
//
// Lines that are not benchmark results (headers, PASS/ok, metrics the
// benchmarks attach via ReportMetric) are carried into the report where
// relevant and otherwise ignored, so the tool is safe to run on the full
// `go test` output.
//
// With -diff it compares two reports instead of reading stdin:
//
//	benchjson -diff old.json new.json -tolerance 0.30
//
// Every Serial/Batch speedup present in both reports is compared; the exit
// status is 1 when any speedup regressed by more than the tolerance
// fraction (default 0.30).
// Raw ns/op is machine- and load-dependent, so only the speedup ratios —
// which divide that noise out — gate.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchLine matches e.g.
//
//	BenchmarkSolveScaleAMGPCG10kBatch-8   4   252596955 ns/op   8.00 lanes
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// metricPart matches trailing custom metrics: "8.00 lanes".
var metricPart = regexp.MustCompile(`([\d.eE+-]+) ([\w%/-]+)`)

// Entry is one benchmark result.
type Entry struct {
	Name    string             `json:"name"`
	Iters   int                `json:"iterations"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BatchPair couples a Serial benchmark with its Batch twin (the multi-RHS
// scaling pairs); Nodes and Lanes carry the scaling-curve coordinates when
// the benchmarks report them.
type BatchPair struct {
	Name     string  `json:"name"`
	SerialNs float64 `json:"serial_ns_per_op"`
	BatchNs  float64 `json:"batch_ns_per_op"`
	Speedup  float64 `json:"speedup"`
	Nodes    float64 `json:"nodes,omitempty"`
	Lanes    float64 `json:"lanes,omitempty"`
}

// Report is the emitted document.
type Report struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Entry     `json:"benchmarks"`
	BatchPairs []BatchPair `json:"batch_pairs,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-diff" {
		os.Exit(runDiff(os.Args[2:]))
	}
	var rep Report
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.Atoi(m[2])
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		e := Entry{Name: strings.TrimPrefix(m[1], "Benchmark"), Iters: iters, NsPerOp: ns}
		for _, mm := range metricPart.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				continue
			}
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[mm[2]] = v
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	// Pair suffix-twinned variants by common stem: *Serial with *Batch (the
	// multi-RHS scaling pairs). When -count ran a benchmark several times,
	// the mean ns/op of each variant is paired; scaling metrics (nodes,
	// lanes) take the last reported value.
	type acc struct {
		sum     float64
		n       int
		metrics map[string]float64
	}
	var order []string
	add := func(m, other map[string]*acc, stem string, e Entry) {
		a := m[stem]
		if a == nil {
			if other[stem] == nil {
				order = append(order, stem)
			}
			a = &acc{}
			m[stem] = a
		}
		a.sum += e.NsPerOp
		a.n++
		if e.Metrics != nil {
			a.metrics = e.Metrics
		}
	}
	serial, batch := map[string]*acc{}, map[string]*acc{}
	for _, e := range rep.Benchmarks {
		switch {
		case strings.HasSuffix(e.Name, "Serial"):
			add(serial, batch, strings.TrimSuffix(e.Name, "Serial"), e)
		case strings.HasSuffix(e.Name, "Batch"):
			add(batch, serial, strings.TrimSuffix(e.Name, "Batch"), e)
		}
	}
	for _, stem := range order {
		s, bt := serial[stem], batch[stem]
		if s == nil || bt == nil || s.n == 0 || bt.n == 0 {
			continue
		}
		sm, bm := s.sum/float64(s.n), bt.sum/float64(bt.n)
		bp := BatchPair{
			Name:     stem,
			SerialNs: sm,
			BatchNs:  bm,
			Speedup:  sm / bm,
		}
		if s.metrics != nil {
			bp.Nodes = s.metrics["nodes"]
			bp.Lanes = s.metrics["lanes"]
		}
		rep.BatchPairs = append(rep.BatchPairs, bp)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// runDiff implements `benchjson -diff old.json new.json [-tolerance F]`.
// Returns the process exit code: 0 when no paired speedup regressed past
// the tolerance, 1 on a regression, 2 on usage or read errors.
func runDiff(args []string) int {
	tol := 0.30
	var files []string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; {
		case a == "-tolerance" || a == "--tolerance":
			if i+1 >= len(args) {
				fmt.Fprintln(os.Stderr, "benchjson: -tolerance needs a value")
				return 2
			}
			i++
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || v < 0 || v >= 1 {
				fmt.Fprintf(os.Stderr, "benchjson: -tolerance must be a fraction in [0, 1), got %q\n", args[i])
				return 2
			}
			tol = v
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(os.Stderr, "benchjson: unknown diff flag %q\n", a)
			return 2
		default:
			files = append(files, a)
		}
	}
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson -diff old.json new.json [-tolerance F]")
		return 2
	}
	old, err := readReport(files[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	cur, err := readReport(files[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}

	base := map[string]float64{}
	for _, p := range old.BatchPairs {
		base[p.Name] = p.Speedup
	}
	check := func(name string, now float64) bool {
		was, ok := base[name]
		if !ok || was <= 0 {
			fmt.Printf("NEW    %-40s speedup %.2fx (no baseline)\n", name, now)
			return true
		}
		floor := was * (1 - tol)
		if now < floor {
			fmt.Printf("REGRESS %-40s speedup %.2fx -> %.2fx (floor %.2fx at %.0f%% tolerance)\n",
				name, was, now, floor, 100*tol)
			return false
		}
		fmt.Printf("OK     %-40s speedup %.2fx -> %.2fx\n", name, was, now)
		return true
	}
	ok, compared := true, 0
	for _, p := range cur.BatchPairs {
		ok = check(p.Name, p.Speedup) && ok
		compared++
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no speedup pairs in the new report — nothing compared")
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

func readReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rep, nil
}
