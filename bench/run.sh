#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh --workload line-rmw166 --seed 1 --seconds 20 --trace 0
#
# The build writes only under .bench_build/ at the repository root: the
# binary, the Go build cache, temporary files and the go command's own
# configuration. No network access is needed; the module has no
# dependencies outside this repository.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

if ! command -v go >/dev/null 2>&1; then
	PATH="$PATH:/usr/local/go/bin"
fi

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C bench -o "$out/nicperf" .
exec "$out/nicperf" "$@"
