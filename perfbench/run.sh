#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload live-integrated --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build/ under the
# current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
