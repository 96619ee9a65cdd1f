#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Build outputs and the Go build cache
# stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" -root "${root}" "$@"
