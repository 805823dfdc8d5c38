#!/bin/bash
# Entry point of the benchmark contract (BENCHMARK.json "command"):
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout, keeping Go's build cache and temporary files there as well so
# that nothing is read or written outside the checkout, then runs it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOWORK=off
# The go command keeps its own settings and telemetry counters under the
# user's configuration directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"

# The bench module replaces "transedge" with its parent directory; where
# that is missing (a directory holding only BENCHMARK.json and bench/) the
# build fails and the script exits non-zero without printing a result.
(cd "$here" && go build -o "$out/transedge-bench" .) >&2

cd "$root"
exec "$out/transedge-bench" -work "$out/work" "$@"
