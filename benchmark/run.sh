#!/usr/bin/env bash
# Builds the benchmark and the rethinkd daemon from source into
# .bench_build/ at the repository root, then runs the benchmark with the
# given arguments from the repository root. Everything the build writes,
# the Go build cache included, stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" &&
	go build -o "$build/benchmark" . &&
	go build -o "$build/rethinkd" repro/cmd/rethinkd) >&2
cd "$root"
exec "$build/benchmark" "$@"
