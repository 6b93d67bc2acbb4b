#!/bin/sh
# Builds the benchmark from source and runs it, as BENCHMARK.json's command:
#
#   sh benchmark/run.sh --workload admit_stream --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write — Go's build cache, the binary,
# journal files, span files — goes under .bench_build/ at the root of the
# checkout, so nothing outside the checkout is read or written (the Go
# toolchain itself aside; XDG_CONFIG_HOME keeps its telemetry counters in).
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
export XDG_CONFIG_HOME="$build/config"
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" -workdir "$build/work" -trace-dir "$build/trace" "$@"
