#!/usr/bin/env bash
# Builds abperf from source into .bench_build at the root of the checkout and
# runs it with the given arguments. Everything the Go toolchain writes —
# build cache, module cache, telemetry — is kept under .bench_build, so a run
# reads and writes only inside its checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/abperf" .)
cd "$root"
exec "$build/abperf" "$@"
