#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload stock|traffic --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache and temporary files, the binary, the
# runs' state directories and the traced runs' span files.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
