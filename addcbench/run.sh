#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the repository
# root:
#
#   bash addcbench/run.sh --workload collect-n1000 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run artifacts stay under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/home"

# Keep every file the go command writes inside the checkout.
export HOME=$build/home XDG_CONFIG_HOME=$build/home XDG_CACHE_HOME=$build/home
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOTELEMETRY=off

(cd "$root/addcbench" && go build -trimpath -o "$build/addcbench" .)
exec "$build/addcbench" --build-dir "$build" "$@"
