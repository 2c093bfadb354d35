#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash cmd/benchmark/run.sh --workload live --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache, the binary, spans
# and scratch state all go under .bench_build/ in the current directory,
# so nothing is written outside it.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" -out-dir "$out" "$@"
