#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the checkout it is run
# from and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload kv-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  Every build artefact (Go build cache,
# temporary files, the binary) and every trace file stays under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's own state (telemetry counters) in
# the build directory too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	XDG_CONFIG_HOME="$out/config"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
