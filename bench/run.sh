#!/usr/bin/env bash
# Builds the benchmark and the dart binary under test from the checkout
# it is run in (untimed), then runs the benchmark with the arguments
# given.  Run it from the repository root:
#
#   bash bench/run.sh --workload sip-cold --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh compare OLD.jsonl NEW.jsonl
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, Go's build cache and configuration included.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

go build -C bench -o "$out/bench" .
if [ "${1:-}" != compare ]; then
	go build -o "$out/dart" ./cmd/dart
fi
exec "$out/bench" "$@"
