#!/usr/bin/env bash
# Builds the barrier benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash barrierbench/run.sh --workload inproc-skew --seed 1 --seconds 10 --trace 0
# Build products and the Go build cache stay under .bench_build in the
# checkout; the benchmark needs nothing outside the standard library.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/barrierbench/go.mod" ]; then
	echo "run.sh: run from the repository root (barrierbench/ and the softbarrier module)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/barrierbench" build -o "$out/barrierbench" .
exec "$out/barrierbench" "$@"
