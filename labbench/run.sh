#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash labbench/run.sh --workload corpus --seed 42 --seconds 30 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/ in
# the current directory: the Go build cache, the binary, result files, spans
# and profiles. The build log goes to standard error, so the last line of
# standard output stays the benchmark's JSON result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/bin/labbench" .) >&2
exec "$build/bin/labbench" "$@"
