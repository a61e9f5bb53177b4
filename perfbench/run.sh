#!/usr/bin/env bash
# Builds the benchmark (and the system under test, from the enclosing
# checkout) and runs it with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload fixed-live --seed 1 --seconds 15 --trace 0
#
# Run from the root of the checkout. Every build product, cache and temporary
# file stays under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

bin="$out/perfbench"
(cd "$root/perfbench" && go build -buildvcs=false -o "$bin" .)
exec "$bin" --out "$out/perfbench-results" "$@"
