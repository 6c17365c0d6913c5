#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it from the
# repository root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files stay in the build
# directory inside the checkout ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
