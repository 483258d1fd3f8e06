#!/bin/sh
# Canonical tier-1 gate, mirroring `make check` for environments without
# make. Runs vet, build, the full test suite, the race-detector pass (see
# below), the isolation flake gate, the fuzz gate, a chaos smoke (the fault-injection storm with its
# four robustness assertions), a bench smoke, the docs gate
# (scripts/docscheck.sh) and the reach gate (scripts/reachcheck.sh).
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

# Race-detector gate (`make race`): packages and test regexes are listed
# once, in scripts/race.sh.
sh scripts/race.sh

# Isolation flake gate (`make isolation`): the experiment smoke test, with
# chaos's armed fault storm running beside every other experiment, and the
# two-Service switchboard isolation test, repeated under GOMAXPROCS 1 and 2.
# Service-to-Service telemetry and fault leaks are caught by
# TestServiceSwitchboardIsolation: one Service armed, one not, and the
# unarmed one must see no hit, sample or degraded tenant.
echo "== isolation gate (TestExperimentsSmoke, TestServiceSwitchboardIsolation; -count=3 -cpu 1,2)"
go test -count=3 -cpu 1,2 -run 'TestExperimentsSmoke|TestServiceSwitchboardIsolation' ./internal/harness ./internal/server

# Fuzz gate (`make fuzz`): the target list is in scripts/fuzz.sh; any
# crasher fails the gate. FUZZTIME (default 10s) is passed through.
sh scripts/fuzz.sh

# Chaos smoke: shard panics, ingest delays and checkpoint fsync failures
# fire under mixed traffic; the experiment enforces its four robustness
# assertions internally, so a zero exit is the pass.
echo "== chaos smoke (cmd/experiments -exp chaos -scale 10)"
go run ./cmd/experiments -exp chaos -scale 10

# One iteration of every tracked benchmark: proves the suite compiles and
# runs and that the JSON emitter works, without clobbering the committed
# BENCH_kernels.json baseline (regenerate that with `make bench BENCHTIME=2s`
# or `BENCHTIME=2s sh scripts/bench.sh` when landing a perf change).
echo "== bench smoke (scripts/bench.sh, BENCHTIME=1x)"
OUT="${TMPDIR:-/tmp}/BENCH_kernels.smoke.json" sh scripts/bench.sh

echo "== docs gate (scripts/docscheck.sh)"
sh scripts/docscheck.sh

# Reach gate (`make reach`): every internal/ package is a dependency of the
# facade, a command or an example.
echo "== reach gate (scripts/reachcheck.sh)"
sh scripts/reachcheck.sh

echo "OK"
