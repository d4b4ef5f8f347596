#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's own sources and runs it.
#
#   bash perfbench/run.sh --workload predict-lone --seed 1 --seconds 12 --trace 0
#
# Everything the Go toolchain writes (build cache, config, the benchmark
# binary, trace files) stays under .bench_build/ in the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
