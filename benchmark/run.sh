#!/usr/bin/env bash
# Builds the benchmark and asmserve from this checkout's source, then runs
# one workload. Run it from the repository root:
#
#   bash benchmark/run.sh --workload sample-ic --seed 1 --seconds 30 --trace 0
#
# Everything it writes (build cache, binaries, journals, span dumps) goes
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command keeps its build cache, module cache, temporary files and
# telemetry counters (under the user config directory) in the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

cd "$(dirname "$0")"
go build -o "$out/asmbench" .
go build -o "$out/asmserve" asti/cmd/asmserve
cd "$root"
exec "$out/asmbench" --asmserve "$out/asmserve" --dir "$out/run" "$@"
