// Command voltbench is voltstack's end-to-end benchmark. It runs one of
// four workloads, each calling the same public functions the CLIs and the
// daemon call and timing every call from here:
//
//	paper-coarse  every registered experiment on the 16x16 mesh, as `vsexplore -exp all -coarse`
//	pdn-solve     serial pdngrid New/Solve/SolveBatch calls on 12 PDN configs
//	em-mc         `emlife -grid 32 -mc-trials 20000`: two PDN solves, then EM lifetimes
//	serve-mixed   two closed-loop clients against a real vsserved
//
// Usage, from the root of the repository (bench/run.sh builds and runs it):
//
//	voltbench -workload NAME -seed N -seconds S -trace 0|1
//
// A run measures whole rounds, at least two and more while they fit in S
// seconds. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics, or
// with -trace 1 the per-layer ones. A traced run traces every other round
// and also writes bench/out/NAME.trace.json (Chrome trace_event format)
// and bench/out/NAME.layers.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"voltstack/internal/core"
)

// roundFunc runs one timed round of an in-process workload.
type roundFunc func(*recorder) (*Round, error)

// inProcess are the workloads whose calls run inside a child process of
// the benchmark; each prepares its inputs from the seed, which is its
// set-up, and returns the timed round.
var inProcess = map[string]func(seed int64) (roundFunc, error){
	"paper-coarse": func(seed int64) (roundFunc, error) { return preparePaper(seed, core.ExperimentNames()) },
	"pdn-solve":    func(seed int64) (roundFunc, error) { return preparePDN(seed, pdnFull) },
	"em-mc":        func(seed int64) (roundFunc, error) { return prepareEM(seed, emFull) },
}

// serveMixed drives a separate vsserved process instead.
const serveMixed = "serve-mixed"

const (
	minRounds   = 2  // a traced run needs an untraced and a traced round
	setupProbes = 15 // extra processes started per run only to time set-up
)

func main() {
	workload := flag.String("workload", "", "paper-coarse, pdn-solve, em-mc or serve-mixed")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 20, "measure whole rounds for about this long (at least two)")
	trace := flag.Int("trace", 0, "1: trace every other round and report the per-layer metrics")
	vsserved := flag.String("vsserved", ".bench_build/vsserved", "vsserved binary serve-mixed runs")
	work := flag.String("work", ".bench_build/tmp", "directory for the daemon's state and cache")
	out := flag.String("out", "bench/out", "directory for a traced run's trace and per-layer files")
	child := flag.Bool("child", false, "run one round in this process and print it (the benchmark starts itself so)")
	setupOnly := flag.Bool("setup-only", false, "with -child: stop once set up")
	flag.Parse()

	if *child {
		if err := runChild(*workload, *seed, *trace == 1, *setupOnly); err != nil {
			fmt.Fprintf(os.Stderr, "voltbench: %s: %v\n", *workload, err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "voltbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	r, err := newRunner(*workload, *seed, *vsserved, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "voltbench:", err)
		os.Exit(2)
	}
	res, err := measure(r, *workload, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "voltbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "voltbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// childMsg is what a child process prints as its last line.
type childMsg struct {
	ReadyUnixNS int64  `json:"ready_unix_ns"` // set-up done, first timed call next
	Round       *Round `json:"round,omitempty"`
}

func runChild(name string, seed int64, traced, setupOnly bool) error {
	prepare, ok := inProcess[name]
	if !ok {
		return fmt.Errorf("not an in-process workload")
	}
	round, err := prepare(seed)
	if err != nil {
		return err
	}
	msg := childMsg{ReadyUnixNS: time.Now().UnixNano()}
	if !setupOnly {
		if msg.Round, err = round(newRecorder(traced)); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(msg)
}

// runner starts set-up probes and rounds of one workload.
type runner struct {
	setup func() (float64, error)
	round func(traced bool) (*Round, error)
}

func newRunner(name string, seed int64, vsserved, work string) (*runner, error) {
	if name == serveMixed {
		if err := os.MkdirAll(work, 0o755); err != nil {
			return nil, err
		}
		// Every round draws its own request sequence, so a run averages
		// over several mixes of keys instead of replaying one.
		seeds := rand.New(rand.NewSource(seed))
		return &runner{
			setup: func() (float64, error) { return serveSetup(vsserved, work) },
			round: func(traced bool) (*Round, error) {
				reqs := serveRequests(seeds.Int63(), serveFull.requests)
				return serveRound(vsserved, work, reqs, serveFull, traced)
			},
		}, nil
	}
	if _, ok := inProcess[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q (have paper-coarse, pdn-solve, em-mc, serve-mixed)", name)
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10)}
	return &runner{
		setup: func() (float64, error) {
			r, err := spawn(slices.Concat(args, []string{"-setup-only"}))
			if err != nil {
				return 0, err
			}
			return r.SetupS, nil
		},
		round: func(traced bool) (*Round, error) {
			if traced {
				return spawn(slices.Concat(args, []string{"-trace", "1"}))
			}
			return spawn(args)
		},
	}, nil
}

// spawn runs this program as a child and measures it from outside: set-up
// is spawn to the child's first timed call; CPU and peak RSS come from the
// kernel's accounting of the exited process.
func spawn(args []string) (*Round, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child round: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var msg childMsg
	if err := json.Unmarshal(lines[len(lines)-1], &msg); err != nil {
		return nil, fmt.Errorf("child round output: %w", err)
	}
	r := msg.Round
	if r == nil {
		r = &Round{}
	}
	r.SetupS = float64(msg.ReadyUnixNS-t0.UnixNano()) / 1e9
	r.CPUS, r.RSSMB = usage(cmd.ProcessState)
	return r, nil
}

// usage returns an exited process's user+sys CPU seconds and its peak
// resident set in MB (Linux reports ru_maxrss in KiB).
func usage(ps *os.ProcessState) (cpuS, rssMB float64) {
	if ps == nil {
		return 0, 0
	}
	cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) * 1024 / 1e6
	}
	return cpuS, rssMB
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure times set-up probes, then runs rounds: at least minRounds, and
// more while the median round still fits in seconds. A traced run traces
// every other round and writes its trace and per-layer files under out.
func measure(r *runner, name string, seed int64, seconds int, traced bool, out string) (*result, error) {
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		s, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, s)
	}
	var rounds, tracedRounds, untracedRounds []*Round
	var durs []float64
	start := time.Now()
	for i := 0; ; i++ {
		t := time.Now()
		tr := traced && i%2 == 1
		rd, err := r.round(tr)
		if err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(t).Seconds())
		rounds = append(rounds, rd)
		setups = append(setups, rd.SetupS)
		if tr {
			tracedRounds = append(tracedRounds, rd)
		} else {
			untracedRounds = append(untracedRounds, rd)
		}
		if i+1 >= minRounds && time.Since(start).Seconds()+median(durs) > float64(seconds) {
			break
		}
	}

	res := &result{Metrics: map[string]metricValue{}}
	var errs, notes []string
	for i, rd := range rounds {
		res.Attempted += len(rd.Ops)
		for _, op := range rd.Ops {
			if op.Failed {
				res.Failed++
			}
		}
		errs = append(errs, rd.Errors...)
		if rd.Digest != rounds[0].Digest {
			errs = append(errs, fmt.Sprintf("round %d output digest %s differs from round 0's %s", i, rd.Digest, rounds[0].Digest))
		}
		for _, n := range rd.Notes {
			if !slices.Contains(notes, n) {
				notes = append(notes, n)
			}
		}
	}
	res.Correct = len(errs) == 0 && res.Attempted > 0

	defs, vals := endToEnd, endToEndValues(rounds, setups)
	if traced {
		defs, vals = perLayer(), perLayerValues(untracedRounds, tracedRounds)
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}

	fmt.Fprintf(os.Stderr, "voltbench: %s seed %d: %d rounds (%d traced), %d ops, %d failed, set-up over %d processes\n",
		name, seed, len(rounds), len(tracedRounds), res.Attempted, res.Failed, len(setups))
	for i, rd := range rounds {
		fmt.Fprintf(os.Stderr, "voltbench: round %d: wall %.3f s, cpu %.3f s, peak rss %.1f MB, set-up %.2f ms\n",
			i, rd.WallS, rd.CPUS, rd.RSSMB, 1e3*rd.SetupS)
	}
	if len(notes) > 0 {
		fmt.Fprintf(os.Stderr, "voltbench: %s\n", strings.Join(notes, ", "))
	}
	for i, e := range errs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "voltbench: ... %d more errors\n", len(errs)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "voltbench: error: %s\n", e)
	}
	if traced {
		if err := writeTrace(out, name, seed, rounds, vals); err != nil {
			return nil, err
		}
	}
	return res, nil
}
