#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash benchmark/run.sh --workload bulk_shm_fp16 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, the binary, the
# shared-memory transport's backing files) stays in .bench_build in the
# checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
