#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the repository root:
#
#   bash e2ebench/run.sh --workload stencil --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# benchmark binary, the aot tier's private caches) stays under
# .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off FORCE_MODULE_ROOT="$root"
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
