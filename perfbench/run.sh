#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload wifi-fresh --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build product, the Go build cache and
# the span dumps stay under .bench_build/ in that root. The benchmark is its
# own Go module that imports the repository module through a replace
# directive, so outside a full checkout the build fails and so does this
# script.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
