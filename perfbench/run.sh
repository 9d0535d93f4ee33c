#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload kb-deepstack --seed 1 --seconds 10 --trace 0
#
# All build output (the binary and Go's build cache) goes under
# $CARGO_TARGET_DIR, default .bench_build; a relative path is taken from the
# repository root, so nothing is written outside the checkout. The build
# fails, and the script exits non-zero, when the repository's own sources
# are missing.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
