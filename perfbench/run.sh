#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload fleet-read --seed 1 --seconds 20 --trace 0
#
# Run from the checkout's root. The build cache, the binary and every
# file a run writes stay under .bench_build/ in that root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
work="$root/.bench_build"
mkdir -p "$work/gocache" "$work/tmp" "$work/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOPATH="$work/gopath" GOMODCACHE="$work/gopath/pkg/mod" XDG_CONFIG_HOME="$work/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$work/perfbench" .)
commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
  commit="$(git -C "$root" rev-parse HEAD)"
fi
cd "$root"
PERFBENCH_COMMIT="$commit" exec "$work/perfbench" "$@"
