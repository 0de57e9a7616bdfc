#!/usr/bin/env bash
# Builds perfbench from source and runs it; every argument passes
# through. Run from the repository root:
#
#   bash perfbench/run.sh --workload offline-wide --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and everything a run writes stay under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
