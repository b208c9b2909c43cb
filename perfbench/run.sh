#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload grid_event --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go's build cache, module cache, settings
# and the binary) stays under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
