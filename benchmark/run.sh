#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the harness from source
# into .bench_build/ of the checkout and runs it there; the Go build
# cache and the toolchain's own bookkeeping are kept inside the checkout
# too, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C "$root/benchmark" build -o "$out/drainnet-benchmark" .
exec "$out/drainnet-benchmark" -root "$root" "$@"
