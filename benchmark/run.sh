#!/bin/sh
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (the go build cache too, so nothing is written outside it)
# and runs it with the arguments given.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/ccbm-benchmark" .)
exec "$build/ccbm-benchmark" "$@"
