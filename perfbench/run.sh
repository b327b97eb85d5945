#!/usr/bin/env bash
# Builds the benchmark from the sources of the repository it sits in and
# runs it with the given arguments, from the repository root. The binary,
# the Go build cache and every other file the toolchain writes stay in
# .bench_build at the root, so nothing outside the checkout is touched.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$bench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
