#!/usr/bin/env bash
# Builds the benchmark from the tree it sits in and runs it with the
# given arguments, from the root of that tree:
#
#   bash perfbench/run.sh --workload sweep-k40 --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache, the go command's telemetry and run
# outputs stay under .bench_build/ in the tree.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
