#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload splay-k32 --seed 1 --seconds 10 --trace 0
#
# Build outputs (the binary, the Go build cache, the traced run's span
# file) go under $CARGO_TARGET_DIR, default .bench_build, inside the
# checkout; so do GOPATH and the Go configuration directory, where the
# toolchain would otherwise write outside it.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out/perfbench-spans" "$@"
