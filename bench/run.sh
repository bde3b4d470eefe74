#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload flow --seed 1 --seconds 20 --trace 0
#
# The build cache and binary live in .bench_build/ (or
# $CARGO_TARGET_DIR when set), so a run writes nothing outside the
# checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# The go command also keeps telemetry counters under the user config
# directory; point that into the build directory too.
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
