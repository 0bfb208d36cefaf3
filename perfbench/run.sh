#!/usr/bin/env bash
# Builds twmd, twmw and the benchmark program from this checkout's
# source, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload local_small --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --smoke          # self-test every workload
#
# Every build and run artifact stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, daemon data directories,
# the query_mix corpus and the span files of traced runs.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
mkdir -p "$build/bin" "$build/config/go/telemetry"
# With telemetry on (its default mode is "local"), cmd/go forks a
# detached sidecar process that outlives the build; turn it off so the
# benchmark leaves no process behind.
echo off >"$build/config/go/telemetry/mode"

cd "$root"
go build -o "$build/bin/twmd" ./cmd/twmd
go build -o "$build/bin/twmw" ./cmd/twmw
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
