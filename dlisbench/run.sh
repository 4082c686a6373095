#!/usr/bin/env bash
# Builds the DLIS benchmark from source and runs one workload, e.g.
#
#   bash dlisbench/run.sh --workload edge-open --seed 1 --seconds 30 --trace 0
#
# Run it from anywhere inside a checkout; it works from the checkout's
# root. Every file it builds or writes stays under .bench_build there.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C dlisbench build -o "$build/dlisbench" . >&2
exec "$build/dlisbench" "$@"
