#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload feed --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, the binary and the
# span dumps of traced runs stay under .bench_build/ in the working
# directory, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$(dirname "$0")" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
