#!/usr/bin/env bash
# Builds perfbench from source and runs one workload, from the repository
# root:
#
#   bash perfbench/run.sh --workload fleet-scan --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root — the Go build and module caches, the toolchain's
# temporary and telemetry files included; span exports of traced runs
# land in .bench_build/out/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --src "$root" --out "$out/out" "$@"
