#!/usr/bin/env bash
# Builds the benchmark and runs it. Everything the build leaves behind --
# Go's build cache included -- stays in .bench_build/ inside the checkout.
#
#   bash bench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -check
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOMODCACHE=$build/gomod
export GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$build/mobilesim-bench" . >&2
exec "$build/mobilesim-bench" "$@"
