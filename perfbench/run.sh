#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fresh-traffic --seed 1 --seconds 8 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
