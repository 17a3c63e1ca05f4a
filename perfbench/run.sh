#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --all
#
# Every build and run artifact stays under .bench_build in the current
# directory: the Go build cache, temporary files and the data directories
# the runs create.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
		go build -buildvcs=false -o "$out/perfbench" .
)
exec "$out/perfbench" -dir "$out" "$@"
