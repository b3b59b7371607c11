#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact, cache and trace
# file stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=-mod=mod

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -out "$build" "$@"
