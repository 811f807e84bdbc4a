#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash benchmark/run.sh --workload mcc-deepq --seed 11 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and any
# file the go command writes land under $CARGO_TARGET_DIR (default
# .bench_build), so a run writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

(
	cd "$root/benchmark"
	env GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		HOME="$out" GOTOOLCHAIN=local GOWORK=off GOPROXY=off \
		go build -o "$out/phishare-bench" .
)
exec "$out/phishare-bench" "$@"
