#!/usr/bin/env bash
# Builds the powerplay server and the benchmark program from source, then
# runs one benchmark pass.  Run it from the repository root:
#
#   bash perfbench/run.sh --workload edit --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# working directory.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/powerplay || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a PowerPlay checkout" >&2
	exit 2
fi
root=$PWD
out=$root/.bench_build/perfbench
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOENV=off XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
go build -o "$out/powerplay" ./cmd/powerplay
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out/powerplay" -work "$out/run" "$@"
