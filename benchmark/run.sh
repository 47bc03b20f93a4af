#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build (binary and
# Go build cache both, so nothing is written outside the checkout) and runs
# it with the given arguments. BENCHMARK.json names this script as the
# benchmark's command; see README.md for the arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/ugache-benchmark" .
exec "$build/ugache-benchmark" "$@"
