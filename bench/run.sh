#!/usr/bin/env bash
# Builds eofbench from this checkout and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload hw-freertos --seed 7 --seconds 20 --trace 0
#
# The Go build cache, the binary and every temporary file the benchmark writes
# stay under .bench_build/ at the checkout root. The build is offline: the
# benchmark module needs nothing beyond the parent module and the standard
# library, so a checkout without the parent module fails here.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local
go build -C "$root/bench" -o "$out/eofbench" ./eofbench
cd "$root"
exec "$out/eofbench" "$@"
