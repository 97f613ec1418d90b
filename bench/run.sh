#!/usr/bin/env bash
# Builds the harness from source and runs it with the given arguments.
# BENCHMARK.json's command is `bash bench/run.sh`, run from the root of a
# checkout. The binary, Go's build cache and the go command's own
# counter files go to .bench_build/ in that checkout, so a run reads and
# writes nothing outside it; the harness itself writes under bench/out/
# (and bench/results/ with -label).
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	go build -o "$build/sperke-bench" .
exec "$build/sperke-bench" "$@"
