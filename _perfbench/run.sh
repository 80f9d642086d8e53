#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash _perfbench/run.sh --workload fleet --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build and module caches,
# temporary files, the binary, traces and scratch stores. The Go toolchain
# is used as installed, with no downloads.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/perfbench"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export XDG_CONFIG_HOME="$out/config"

go -C "$here" build -o "$out/perfbench/perfbench" . >&2
exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
