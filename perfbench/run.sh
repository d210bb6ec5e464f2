#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 40 --trace 0
#
# The benchmark is a Go module of its own (perfbench/go.mod) that
# imports the repository's packages through a replace directive, so it
# builds only inside a full checkout. The build cache, the binary, the
# stores and the traces all live under .bench_build/ in the current
# directory.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
