#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the Go toolchain writes (build cache, temporary files, its own
# settings) is kept under .bench_build/ at the root of the checkout, so a
# run reads and writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$root/bench" -o "$build/gridbw-bench" .
cd "$root/bench"
exec "$build/gridbw-bench" "$@"
