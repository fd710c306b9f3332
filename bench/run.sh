#!/usr/bin/env bash
# Builds the ascsperf benchmark and runs it with the given arguments.
# Run from the root of a checkout:
#
#   bash bench/run.sh --workload dense-cs --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact (the Go build cache included) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/go-build" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/bin/ascsperf" ./ascsperf
exec "$out/bin/ascsperf" -root "$root" "$@"
