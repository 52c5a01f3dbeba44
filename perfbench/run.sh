#!/usr/bin/env bash
# Builds closnetd and the benchmark client from this checkout's sources,
# then runs one measurement. Run from the repository root:
#
#   bash perfbench/run.sh --workload evaluate-cold --seed 1 --seconds 30 --trace 0
#
# All build output, the Go build cache, temporary files and the span
# files stay under .bench_build/ in the checkout. CARGO_TARGET_DIR, when
# set, names that directory instead.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/closnetd" ./cmd/closnetd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/closnetd" -out "$out" "$@"
