#!/usr/bin/env bash
# Builds the benchmark and the two CLIs it drives (cmd/figures, cmd/chaos)
# from the checkout, then runs one benchmark pass. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload fig3-paper-cold --seed 42 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, the per-run working
# directories and the span dumps of traced runs.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on (the default "local" mode in a fresh config directory)
# every go command starts a detached sidecar process that outlives it; off,
# the build leaves no process behind.
mkdir -p "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"

go build -o "$out/bin/" ./cmd/figures ./cmd/chaos
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/perfbench" "$@"
