#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ of the working directory (the
# root of a checkout) and runs it with the arguments given. Go's build and
# module caches are kept there too, so nothing is written outside.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-modcacherw GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/fsencr-layerbench" .
exec "$build/fsencr-layerbench" "$@"
