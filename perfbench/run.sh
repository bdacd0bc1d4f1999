#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload tcp-steady --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, cache and output
# stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# The result records which code ran: the commit when this is a git work
# tree, otherwise a digest of the Go sources.
commit=""
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
if [ -z "$commit" ]; then
	commit="src-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT="$commit"

exec "$out/perfbench" "$@"
