#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload campaign-bitflip --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, the binary,
# scratch data, span dumps) stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out" "$@"
