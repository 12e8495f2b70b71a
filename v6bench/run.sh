#!/usr/bin/env bash
# Builds the v6scan benchmark from the checkout's sources and runs it.
# Usage, from the root of a checkout:
#   bash v6bench/run.sh --workload census --seed 1 --seconds 10 --trace 0
# The build cache, the binary and every generated input stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/v6bench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
# Build from the benchmark's own module; it fails (and no result is
# printed) when the repository sources are not next to it.
(cd "$root/v6bench" && go build -o "$out/v6bench" .)
exec "$out/v6bench" "$@"
