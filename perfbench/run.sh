#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload bcast-inproc --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and binary live under .bench_build in
# the checkout, so the build reads and writes nothing outside it. Outside
# a full checkout (no ../go.mod next to this directory) the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
