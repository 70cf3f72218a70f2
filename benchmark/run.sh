#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it. Run from
# the repository root; every argument is passed through, e.g.
#
#   bash benchmark/run.sh --workload fleet --seed 1 --seconds 35 --trace 0
#
# The Go build cache, temporary files, the binary and the trace files live
# under .bench_build/ in the checkout, so the benchmark reads and writes nothing
# outside it and needs no network (GOPROXY=off, GOTOOLCHAIN=local).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0 GOENV=off
go build -C "$root/benchmark" -o "$out/rpbeat-bench" .
exec "$out/rpbeat-bench" -trace-dir "$out" "$@"
