#!/bin/sh
# Reachability gate, part of `make check` (see scripts/check.sh): every
# package under internal/ must be a dependency of the facade, a command or
# an example. A package that only tests import is code no binary runs; it
# fails the gate by name until something reaches it or it is deleted.
set -eu

cd "$(dirname "$0")/.."

echo "== reach gate: internal packages reached by . ./cmd/... ./examples/..."
reached="$(go list -deps . ./cmd/... ./examples/...)"
fail=0
for pkg in $(go list ./internal/...); do
	if ! printf '%s\n' "$reached" | grep -qx "$pkg"; then
		echo "unreached package: $pkg (imported by no command, example or facade)"
		fail=1
	fi
done
if [ "$fail" -ne 0 ]; then
	echo "reach gate FAILED"
	exit 1
fi
echo "reach gate OK"
