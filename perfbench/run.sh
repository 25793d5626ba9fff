#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload rmat-2d --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
