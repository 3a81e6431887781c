#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the command of BENCHMARK.json.
# Run from the root of a checkout. Everything it writes stays inside the
# checkout: the Go build cache and the binary under .bench_build/, span files
# and the temporary checkpoint under benchmark/out/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/serve ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repo (no go.mod and internal/ here)" >&2
	exit 2
fi
mkdir -p .bench_build
export GOCACHE="${GOCACHE:-$PWD/.bench_build/gocache}" GOFLAGS=-buildvcs=false
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
