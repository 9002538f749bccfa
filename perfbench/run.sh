#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload dense_lossless --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The build cache, the toolchain's
# config and telemetry directory, the binary, the run records and the
# trace files all live under .bench_build/.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" "$@"
