GO ?= go

.PHONY: build vet test test-short test-race bench bench-parallel bench-telemetry bench-solve bench-scaling bench-diff fuzz golden loc profile metrics-demo provenance-demo serve-demo trace-demo health-demo

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build vet
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# test-race is the concurrency gate: the worker pool, the parallel figure
# drivers, the Monte Carlo fan-out and the telemetry instruments all run
# under the race detector.
test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$'

# bench-parallel runs only the serial-vs-parallel pairs (Fig. 5a, the
# explore sweep, the EM Monte Carlo) for a quick speedup readout.
bench-parallel:
	$(GO) test -bench 'Serial$$|Parallel$$' -run '^$$' .

# bench-solve runs the multi-RHS scaling pairs (a factor rebuilt per
# right-hand side vs one factor reused for all of them) and renders their
# serial-vs-batch speedups into BENCH_solve.json.
bench-solve:
	$(GO) test -bench '^BenchmarkSolve' -run '^$$' -count 3 -timeout 60m . | $(GO) run ./cmd/benchjson > BENCH_solve.json
	@cat BENCH_solve.json

# bench-scaling runs only the multi-RHS node-count scaling pairs (one
# setup reused for 8 solves vs per-RHS setup+solve: sparse Cholesky at
# 10k/100k nodes, AMG-PCG at 10k/100k/1M; the 1M AMG pair is skipped
# under -short).
bench-scaling:
	$(GO) test -bench '^BenchmarkSolveScale' -run '^$$' -count 3 -timeout 60m . | $(GO) run ./cmd/benchjson

# bench-diff runs a quick (-benchtime=1x -short) solve-bench smoke, renders
# it with benchjson and gates its serial-vs-batch speedups (per-RHS setup
# vs one reused factor) against the committed BENCH_solve.json baseline:
# any speedup more than 30% below the baseline fails. This is the CI
# regression gate.
bench-diff:
	$(GO) test -bench '^BenchmarkSolve' -benchtime=1x -short -run '^$$' -timeout 20m . | $(GO) run ./cmd/benchjson > bench-smoke.json
	$(GO) run ./cmd/benchjson -diff BENCH_solve.json bench-smoke.json -tolerance 0.30

# bench-telemetry compares the instrumented Fig. 5a driver with the metrics
# registry disabled vs. enabled; the Off case bounds the always-on cost of
# the instrumentation hooks.
bench-telemetry:
	$(GO) test -bench 'Fig5aTelemetry' -run '^$$' -count 5 .

# fuzz runs every fuzz target for 30s: job-request decoding, the
# cache-fingerprint keying contract, concurrent-vs-serial solver
# equivalence, nested dissection's dense-row (hub) rule and the EM
# lifetime kernels against their per-conductor references. (`go test
# -fuzz` takes one target per invocation.)
fuzz:
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzDecodeJobRequest -fuzztime 30s
	$(GO) test ./internal/pdngrid -run '^$$' -fuzz FuzzCacheFingerprint -fuzztime 30s
	$(GO) test ./internal/sparse/sparsetest -run '^$$' -fuzz FuzzConcurrentSerialEquivalence -fuzztime 30s
	$(GO) test ./internal/sparse/sparsetest -run '^$$' -fuzz FuzzNDHubOrdering -fuzztime 30s
	$(GO) test ./internal/em -run '^$$' -fuzz FuzzGroupMatchesReference -fuzztime 30s

# golden regenerates the pinned paper-number snapshots after a deliberate
# model change.
golden:
	$(GO) test ./internal/core -run TestGolden -update

# loc prints the non-test Go line count of the root module (the bench/
# module excluded), the figure each change reports its net delta against.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^bench/' | xargs cat | wc -l

# profile runs the paper-coarse benchmark's command (every experiment on
# the coarse mesh, here on one worker so the profile reads as a serial
# cost breakdown) and the em-mc benchmark's command (emlife with a Monte
# Carlo cross-check) under the CPU profiler, leaving vsexplore.prof and
# emlife.prof for `go tool pprof ./bin/<cmd> <cmd>.prof`.
profile: build
	$(GO) build -o bin/vsexplore ./cmd/vsexplore
	$(GO) build -o bin/emlife ./cmd/emlife
	./bin/vsexplore -coarse -exp all -workers 1 -cpuprofile vsexplore.prof > /dev/null
	./bin/emlife -grid 32 -mc-trials 20000 -cpuprofile emlife.prof > /dev/null
	@echo "wrote vsexplore.prof and emlife.prof; inspect with: $(GO) tool pprof ./bin/vsexplore vsexplore.prof"

# metrics-demo runs a small sweep with full telemetry and prints the JSON
# metrics dump (the Prometheus rendering lands next to it as
# /tmp/voltstack-metrics.json.prom).
metrics-demo: build
	$(GO) run ./cmd/vsexplore -coarse -exp fig5a,ext-em-mc \
		-metrics /tmp/voltstack-metrics.json -trace /tmp/voltstack-trace.json > /dev/null
	@cat /tmp/voltstack-metrics.json
	@echo "trace: load /tmp/voltstack-trace.json in https://ui.perfetto.dev or chrome://tracing"

# provenance-demo runs the same scenario twice with -manifest and diffs the
# two provenance records with vsreport: identical-seed runs must report
# "all output hashes equal" (vsreport exits 1 on any mismatch).
provenance-demo: build
	$(GO) run ./cmd/vsim -grid 16 -manifest /tmp/voltstack-run-a.json > /dev/null
	$(GO) run ./cmd/vsim -grid 16 -manifest /tmp/voltstack-run-b.json > /dev/null
	$(GO) run ./cmd/vsreport /tmp/voltstack-run-a.json /tmp/voltstack-run-b.json

# trace-demo shows the end-to-end trace + per-job attribution path: the
# daemon runs with -trace, vsctl (which mints a trace ID and sends
# traceparent on every request) runs a job, and the demo prints the job's
# stats document and the top table, then drains the daemon so the trace
# file flushes — load it in https://ui.perfetto.dev to see the HTTP, queue
# -wait, job and solver spans stitched by one trace ID.
trace-demo: build
	$(GO) build -o bin/vsserved ./cmd/vsserved
	$(GO) build -o bin/vsctl ./cmd/vsctl
	rm -rf /tmp/voltstack-trace-demo && mkdir -p /tmp/voltstack-trace-demo
	./bin/vsserved -addr localhost:18325 \
		-state-dir /tmp/voltstack-trace-demo/state \
		-cache-dir /tmp/voltstack-trace-demo/cache \
		-trace /tmp/voltstack-trace-demo/trace.json & pid=$$!; \
	export VSSERVED_ADDR=http://localhost:18325; \
	for i in $$(seq 1 100); do ./bin/vsctl list >/dev/null 2>&1 && break; sleep 0.1; done; \
	./bin/vsctl run -exp fig5a -csv -coarse > /dev/null; \
	id=$$(./bin/vsctl list | grep -o '"id": "[^"]*"' | head -1 | cut -d'"' -f4); \
	./bin/vsctl stats $$id; \
	./bin/vsctl top; \
	kill -TERM $$pid; wait $$pid
	@echo "trace: load /tmp/voltstack-trace-demo/trace.json in https://ui.perfetto.dev"

# health-demo exercises the solver-health observability path end to end:
# the daemon (convergence probes always on) runs a PCG-sized sweep, vsctl
# renders the finished job's health report (condition estimate, residual
# curve, detector verdicts) and /statusz serves the live convergence
# section. A restarted daemon on the same state dir runs the same sweep
# again, and vsreport trend reads both jobs' frozen stats from the journal
# and compares their iterations and conditioning.
health-demo: build
	$(GO) build -o bin/vsserved ./cmd/vsserved
	$(GO) build -o bin/vsctl ./cmd/vsctl
	$(GO) build -o bin/vsreport ./cmd/vsreport
	rm -rf /tmp/voltstack-health-demo && mkdir -p /tmp/voltstack-health-demo
	export VSSERVED_ADDR=http://localhost:18326; \
	for run in 1 2; do \
		./bin/vsserved -addr localhost:18326 -state-dir /tmp/voltstack-health-demo/state & pid=$$!; \
		for i in $$(seq 1 100); do ./bin/vsctl list >/dev/null 2>&1 && break; sleep 0.1; done; \
		./bin/vsctl run -sweep -layers 8 -grid 24 -pads 0.5 -converters 4 -tsvs dense > /dev/null; \
		if [ $$run = 1 ]; then \
			id=$$(./bin/vsctl list | grep -o '"id": "[^"]*"' | head -1 | cut -d'"' -f4); \
			./bin/vsctl health $$id; \
			echo "statusz convergence:"; \
			curl -s http://localhost:18326/statusz | sed -n '/"convergence"/,/}/p'; \
		fi; \
		kill -TERM $$pid; wait $$pid; \
	done
	./bin/vsreport trend /tmp/voltstack-health-demo/state

# serve-demo starts the evaluation daemon, runs the same job twice through
# vsctl (the second is a content-addressed cache hit: identical bytes, zero
# solver work) and shuts the daemon down with a graceful SIGTERM drain.
serve-demo: build
	$(GO) build -o bin/vsserved ./cmd/vsserved
	$(GO) build -o bin/vsctl ./cmd/vsctl
	rm -rf /tmp/voltstack-serve-demo && mkdir -p /tmp/voltstack-serve-demo
	./bin/vsserved -addr localhost:18324 \
		-state-dir /tmp/voltstack-serve-demo/state \
		-cache-dir /tmp/voltstack-serve-demo/cache & pid=$$!; \
	export VSSERVED_ADDR=http://localhost:18324; \
	for i in $$(seq 1 100); do ./bin/vsctl list >/dev/null 2>&1 && break; sleep 0.1; done; \
	./bin/vsctl run -exp fig5a -csv -coarse > /tmp/voltstack-serve-demo/a.csv; \
	./bin/vsctl run -exp fig5a -csv -coarse > /tmp/voltstack-serve-demo/b.csv; \
	cmp /tmp/voltstack-serve-demo/a.csv /tmp/voltstack-serve-demo/b.csv \
		&& echo "serve-demo: cached replay byte-identical"; \
	kill -TERM $$pid; wait $$pid
