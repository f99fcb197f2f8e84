#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments (see perfbench/README.md). Every build artefact, the
# Go build cache and the trace files stay under .bench_build/ in the
# checkout. Run from the checkout root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off

if ! (cd perfbench && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo none)
exec "$build/perfbench" --commit "$commit" "$@"
