#!/usr/bin/env bash
# Builds wtfd and the wtfbed load generator from the checkout's sources and
# runs one benchmark workload. Every build product, cache and temporary file
# stays under .bench_build/ in the current directory (the checkout root).
#
#   bash wtfbed/run.sh --workload kv-read95 --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
# Keep the Go toolchain's caches, config and temp files inside the checkout
# and never let it reach for the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
	TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

go build -o "$build/wtfd" ./cmd/wtfd >&2
(cd "$root/wtfbed" && go build -o "$build/wtfbed" .) >&2
exec "$build/wtfbed" -wtfd "$build/wtfd" -work "$build" -root "$root" "$@"
