#!/usr/bin/env bash
# Builds raccdbench from this source checkout and runs it with the given
# arguments. Run from the root of the checkout:
#
#   bash cmd/raccdbench/run.sh --workload eval-paper16 --seed 1 --seconds 40 --trace 0
#
# Everything it writes — Go build cache and temporary files, binary,
# records, traces and the serve-mix stores — goes under the build
# directory in the checkout ($CARGO_TARGET_DIR when set, else
# .bench_build).
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/go-tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/go-tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$(dirname "$0")" && go build -o "$build/raccdbench" .)
exec "$build/raccdbench" --out "$build/raccdbench-out" "$@"
