#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload predict_small --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
