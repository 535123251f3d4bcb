#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload kv-read-mostly --seed 1 --seconds 30 --trace 0
# Build outputs, the Go build cache and the run's scratch files all live
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
