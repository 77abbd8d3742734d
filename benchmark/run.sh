#!/bin/sh
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (git-ignored) and runs it from the root with the given arguments.
# The Go build cache, module cache and temporary files go there too, and the
# user's Go environment file is not read, so nothing outside the checkout is
# written or consulted but the toolchain itself. See README.md here.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/falkon-benchmark" .) >&2
cd "$root"
exec "$build/falkon-benchmark" "$@"
