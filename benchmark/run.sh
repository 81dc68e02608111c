#!/bin/bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ (Go's build cache included, so nothing is written outside the
# checkout) and runs it with the given arguments. Run from the repo root.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/go-cache" GOTOOLCHAIN=local
go build -o .bench_build/zeus-benchmark ./benchmark
exec .bench_build/zeus-benchmark "$@"
