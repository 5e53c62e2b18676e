#!/usr/bin/env bash
# Builds the perfbench harness from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload verify-grid --seed 0 --seconds 20 --trace 0
#
# Run from the repository root. Every build product (the binary, the Go
# build cache, trace files) stays under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout. The last line of standard output is the
# JSON result; build failures exit non-zero without printing one.
set -euo pipefail

if [[ ! -f perfbench/go.mod || ! -f go.mod ]]; then
	echo "perfbench: run from the repository root (perfbench/go.mod and go.mod must exist)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/perfbench" "$build/tmp"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off
export CGO_ENABLED=0

bin="$build/perfbench/perfbench"
(cd perfbench && go build -buildvcs=false -o "$bin" .) >&2
exec "$bin" --outdir "$build/perfbench" "$@"
