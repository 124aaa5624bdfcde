#!/usr/bin/env bash
# The driver's entry point: builds the program from source into
# .bench_build/ at the root of the checkout (compiler cache and
# temporary files included, so nothing is written outside the checkout)
# and runs it from the root with the given arguments. By hand,
# `go run ./benchmark` at the root does the same with the user's cache.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark: $root is not the repository: the benchmark is package snode/benchmark of its module" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod XDG_CONFIG_HOME="$build/config"
cd "$root"
go build -o "$build/webgraph-bench" ./benchmark
exec "$build/webgraph-bench" "$@"
