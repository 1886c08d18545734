#!/usr/bin/env bash
# Builds the benchmark (voltbench) and the vsserved daemon from this
# checkout's sources into .bench_build/, then runs voltbench. Run it from
# the root of the repository:
#
#   bash bench/run.sh --workload pdn-solve --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay under .bench_build/ too, so a
# run reads and writes nothing outside the checkout but the toolchain.
set -euo pipefail

out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/go-build" GOTMPDIR="$PWD/$out/tmp" TMPDIR="$PWD/$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -buildvcs=false -o "$out/vsserved" ./cmd/vsserved
(cd bench && go build -buildvcs=false -o "../$out/voltbench" .)
exec "$out/voltbench" -vsserved "$out/vsserved" -work "$out/tmp" "$@"
