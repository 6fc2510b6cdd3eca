#!/usr/bin/env bash
# Builds the benchmark and the roboads binary from the source of the
# checkout it is run from, then runs the benchmark:
#
#   bash perfbench/run.sh --workload suite|fleet-10hz|replay-ha \
#       --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository. Build outputs, the Go build
# cache and every scratch file stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOFLAGS= GOTELEMETRY=off

go build -o "$out/roboads" ./cmd/roboads >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -work "$out/work" -bin "$out/roboads" "$@"
