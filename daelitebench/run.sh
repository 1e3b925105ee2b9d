#!/usr/bin/env bash
# Builds the daelite benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash daelitebench/run.sh --workload torus16-stream --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in that root: the Go build cache, the
# binary, run records, spans, CPU profiles and admission journals.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOTOOLCHAIN=local GOWORK=off GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" PPROF_TMPDIR="$out/tmp"

# The build's own output goes to stderr: the result must be the last
# line of stdout.
(cd "$root/daelitebench" && go build -o "$out/daelitebench" .) >&2
exec "$out/daelitebench" "$@"
