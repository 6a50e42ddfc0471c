#!/usr/bin/env bash
# Builds the lifecycle benchmark from the checkout's sources and runs it.
# Run from the repository root, for example:
#
#   bash benchmark/run.sh --workload submit_open --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$out/lifecycle-bench" .)
exec "$out/lifecycle-bench" "$@"
