#!/bin/sh
# Reachability gate, part of `make check` (see scripts/check.sh): every
# package under internal/ must be a dependency of the facade or a command.
# Examples do not count: a package that only an example or a test imports
# is code no binary runs; it fails the gate by name until the facade or a
# command reaches it or it is deleted.
set -eu

cd "$(dirname "$0")/.."

echo "== reach gate: internal packages reached by . ./cmd/..."
reached="$(go list -deps . ./cmd/...)"
fail=0
for pkg in $(go list ./internal/...); do
	if ! printf '%s\n' "$reached" | grep -qx "$pkg"; then
		echo "unreached package: $pkg (imported by neither the facade nor a command)"
		fail=1
	fi
done
if [ "$fail" -ne 0 ]; then
	echo "reach gate FAILED"
	exit 1
fi
echo "reach gate OK"
