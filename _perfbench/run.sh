#!/usr/bin/env bash
# Builds relestd and the load generator from this checkout, then runs one
# benchmark workload. Run from the repository root:
#
#   bash _perfbench/run.sh --workload hot-repeat --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout (Go build cache, temp files, binaries, trace spans).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/relestd || ! -f _perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/relestd and _perfbench/ must exist)" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Keep the toolchain's caches, temp files and per-user config (telemetry
# counters included) inside the checkout, and never reach the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOMODCACHE="$out/gomod"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off

go build -o "$out/relestd" ./cmd/relestd
(cd _perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -relestd "$out/relestd" -out "$out" "$@"
