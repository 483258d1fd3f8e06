#!/usr/bin/env bash
# Builds `kcenter` and the benchmark from this checkout, then makes one
# benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload batch|assign|mixed --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/kcenter" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench/run.sh: run from the root of a kcenter checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/xdg" XDG_CACHE_HOME="$out/xdg" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/kcenter" ./cmd/kcenter
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out/kcenter" -out "$out" "$@"
