#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (compiler cache,
# module cache and binary under .bench_build/) and runs it with the
# driver's arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
