#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload ml10M-miss --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything it writes (the Go
# build cache, the binary, scratch snapshots) goes under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
