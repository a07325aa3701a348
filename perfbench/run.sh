#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench.bin" .)
exec "$build/perfbench.bin" "$@"
