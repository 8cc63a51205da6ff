#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it with the given
# arguments. Everything the build writes (binary, Go build cache, temporary
# files) goes under .bench_build at the root of the checkout, so a run reads
# and writes nothing outside the checkout. Run from anywhere:
#
#   bash benchmark/run.sh --workload sim_trace --seed 1 --seconds 15 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

# The runner is its own module (benchmark/go.mod) that replaces module l3
# with the checkout around it; without that checkout the build fails and
# this script exits non-zero before anything runs.
(cd "$here" && go build -o "$build/l3-benchmark" .)

cd "$root"
exec "$build/l3-benchmark" "$@"
