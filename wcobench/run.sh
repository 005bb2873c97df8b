#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash wcobench/run.sh --workload wgpb-engine --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under .bench_build in the current directory ($CARGO_TARGET_DIR when
# set), so a run reads and writes nothing outside the checkout.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gotmp"
build="$(cd "$build" && pwd)"
# GOTMPDIR and XDG_CONFIG_HOME keep the go command's temporary files and
# telemetry counters in the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go -C wcobench build -o "$build/wcobench" .
exec "$build/wcobench" --tmp "$build/tmp" "$@"
