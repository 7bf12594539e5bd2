#!/usr/bin/env bash
# Builds the pathdb benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-cold --seed 42 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory. Without the pathdb sources next to perfbench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
