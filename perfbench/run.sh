#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Run it
# from the repo root; every file it writes goes under .bench_build/.
#
#   bash perfbench/run.sh --workload sel-detect --seed 1 --seconds 28 --trace 0
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off

# -buildvcs=false: the result store fingerprints the binary the same way
# in a git checkout and in a plain copy of one.
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
