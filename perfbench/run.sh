#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload service-mix --seed 7 --seconds 25 --trace 0
#
# Every build product (compiler cache, binary) and every scratch file the
# workloads write stays under the build directory inside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
XDG_CONFIG_HOME="$build/config" go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" -scratch "$build" "$@"
