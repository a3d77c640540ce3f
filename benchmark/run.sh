#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# so nothing is written elsewhere) and runs it with the caller's arguments.
# The build finishes before the program, and so before any timing, starts.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/asymnvm-benchmark" .
exec "$build/asymnvm-benchmark" "$@"
