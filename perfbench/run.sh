#!/usr/bin/env bash
# Builds the benchmark and the adt binary from this checkout, then runs
# the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload normalize_warm --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# goes under .bench_build/perfbench/ there, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPATH="$out/gopath" GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod"
(
	cd "$root/perfbench"
	go build -o "$out/adt" algspec/cmd/adt
	go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" -adt "$out/adt" -out "$out/trace" "$@"
