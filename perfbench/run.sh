#!/usr/bin/env bash
# Builds the benchmark's load generator and the unmodified cmd/server from this
# checkout, then runs one benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run scratch space go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off CGO_ENABLED=0
(
	cd "$root/perfbench"
	go build -o "$out/kvbench" ./kvbench
	go build -o "$out/kvserver" pragmaprim/cmd/server
) >&2
GOMAXPROCS=2 exec "$out/kvbench" -server "$out/kvserver" -workdir "$out" "$@"
