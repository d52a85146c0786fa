#!/usr/bin/env bash
# Builds the benchmark and the archive server from this checkout into
# .bench_build, then runs one workload:
#
#   bash perfbench/run.sh --workload indoor|city|station --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays under .bench_build in the
# checkout root, including the Go build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config" # where go keeps telemetry
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
mkdir -p .bench_build/bin
(cd perfbench && go build -o "$root/.bench_build/bin/perfbench" . \
	&& go build -o "$root/.bench_build/bin/enviromic-archive" enviromic/cmd/enviromic-archive)
exec .bench_build/bin/perfbench "$@"
