#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run write (Go build cache, the binary,
# WAL data directories, span files) stays under .bench_build/ in the
# current directory, which must be the root of the checkout.
set -euo pipefail
root="$PWD"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/cluster" ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (no go.mod / internal/cluster in $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$here" -o "$build/epibench" .
exec "$build/epibench" -workdir "$build" "$@"
