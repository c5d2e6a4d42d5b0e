#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every
# build product (binary, Go build and module caches, temp files) stays
# under .bench_build/ in the current directory, which must be the
# repository root. Usage:
#
#   bash perfbench/run.sh --workload paper|stream|serve|dispatch --seed N --seconds S --trace 0|1
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
