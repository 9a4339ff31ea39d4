#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it from the repository
# root. Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, scratch databases, results.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
# The go tool is pointed at the checkout for every file it might write
# (build cache, module cache, telemetry), and kept off the network.
env GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off \
	go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
