#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it.  Run it from the
# repository root; every argument passes through to the benchmark:
#
#   bash perfbench/run.sh --workload launch-compute --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files, the binary and traced-run span files all
# go under .bench_build/ in the current directory; nothing outside it is
# written.  Build messages go to standard error, so the last line of standard
# output is always the result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/bin"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in $out too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=mod

(cd "$here" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
