#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build writes (Go's build cache, its temporary files, the binary)
# stays in .bench_build inside the checkout. Run from the repository root:
#
#   bash benchmark/run.sh --workload rstar_hot --seed 7 --seconds 10 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/segbench" ./benchmark
exec "$build/segbench" "$@"
