#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload npb-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Every build and run output (Go
# build cache, binary, ledgers, artifacts, traces, profiles) stays under
# $CARGO_TARGET_DIR (default .bench_build) in that checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
out="$out/perfbench"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
