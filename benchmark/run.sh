#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build writes — the binary, Go's build
# cache, its temporary files — goes under .bench_build/ (or CARGO_TARGET_DIR
# when the benchmark driver sets it), so a run reads and writes only inside
# the checkout. Run from the repository root:
#
#   bash benchmark/run.sh --workload fed_full --seed 7 --seconds 12 --trace 0
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/lass-benchmark" ./benchmark
exec "$build/lass-benchmark" "$@"
