#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from this directory. The Go build cache lives there
# too, so nothing is read or written outside the checkout; later runs reuse
# both and only pay the staleness check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

# Everything the go command would keep under $HOME goes under .bench_build.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

cd "$here"
go build -o "$build/cronus-bench" .
exec "$build/cronus-bench" "$@"
