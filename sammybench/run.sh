#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash sammybench/run.sh --workload population --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, module cache, the binary)
# stays under .bench_build/ in the working directory.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export GOENV=off
export XDG_CONFIG_HOME="$build/config"
go -C "$root/sammybench" build -o "$build/sammybench" .
exec "$build/sammybench" "$@"
