#!/usr/bin/env bash
# Builds perfbench from source and runs it from the root of the checkout.
# Every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload front-door-read --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the benchmark's WAL files all live in
# .bench_build under the current directory, so nothing is written outside
# the checkout and no module is fetched.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
