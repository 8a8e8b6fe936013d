#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout: bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the binary, Go's build cache and temp files, and the
# chains a run seals.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go build -C bench -o "$build/orochi-perfbench" .
exec "$build/orochi-perfbench" -workdir "$build" "$@"
