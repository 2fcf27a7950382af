#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The Go build cache and the binary live in
# .bench_build/ (or $CARGO_TARGET_DIR when set), so nothing is written
# outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
# XDG_CONFIG_HOME moves the go command's environment file and telemetry
# counters, which default to the user's home directory.
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd _perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -trace-dir "$out/perfbench-trace" "$@"
