#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs it,
# passing every argument on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload city-169cell --seed 1 --seconds 30 --trace 0
#
# The Go build cache and the binary live under .bench_build/ in the checkout;
# the first run compiles the standard library into it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
