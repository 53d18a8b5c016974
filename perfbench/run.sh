#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs one workload:
#
#   bash perfbench/run.sh --workload chip_cold --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build artifact (the Go build
# cache included) and every trace file stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
