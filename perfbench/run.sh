#!/usr/bin/env bash
# Builds the perfbench module from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, rotord spools and span files all stay in
# the checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a rotorring checkout" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps its telemetry counters under the user config
# directory; point that, and temporary files, into the checkout too.
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOFLAGS="" GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
