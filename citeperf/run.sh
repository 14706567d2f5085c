#!/usr/bin/env bash
# Builds the citeperf benchmark from the checkout's sources and runs it from
# the checkout root, passing every argument through:
#
#   bash citeperf/run.sh --workload long-tail --seed 1 --seconds 10 --trace 0
#
# Every build product (binary, Go build cache) lands under .bench_build/ in
# the checkout; nothing is fetched from the network.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/citeperf"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off
(cd "$here" && go build -o "$build/citeperf" .) >&2
cd "$root"
exec "$build/citeperf" "$@"
