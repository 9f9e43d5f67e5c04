#!/usr/bin/env bash
# Builds the grant-path benchmark from source inside the checkout and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload uniform --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, config)
# stays under the build directory, $CARGO_TARGET_DIR or .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config
export XDG_CACHE_HOME=$build/cache
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

bin=$build/perfbench
go -C "$root/perfbench" build -o "$bin" .
export PERFBENCH_OUT=$build/perfbench-out
exec "$bin" "$@"
