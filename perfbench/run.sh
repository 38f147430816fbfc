#!/usr/bin/env bash
# Builds the serving-path ask benchmark from source and runs it from the
# repository root. Arguments pass through to the benchmark binary:
#
#   bash perfbench/run.sh --workload ask-311 --seed 1 --seconds 20 --trace 0
#
# Build products and the Go build cache stay under .bench_build/ in the
# checkout. Outside a full source tree (no ../go.mod) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
(cd "$bench_dir" && go build -o "$out/askbench" .) >&2
cd "$root"
exec "$out/askbench" "$@"
