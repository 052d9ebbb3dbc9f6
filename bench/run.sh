#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#	bash bench/run.sh --workload amg-grid --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, temp files, the binary) goes
# under .bench_build in the checkout; the benchmark itself writes under
# bench/out. Nothing outside the checkout is touched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local go build -o "$build/bench" ./bench >&2
TMPDIR="$build/tmp" exec "$build/bench" "$@"
