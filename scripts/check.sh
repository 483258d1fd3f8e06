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

# Race-detector gate over the worker pool behind the parallel Gonzalez
# traversal (TestPoolConcurrentTraversals), the concurrent streaming
# ingestion path (TestShardedConcurrentProducers, TestShardedSnapshotRace),
# the serving layer (TestConcurrentIngestAssignSnapshot, the multi-tenant
# create/ingest/assign/checkpoint test TestConcurrentTenantLifecycle and
# the assign linearizability test TestAssignLinearizable, and the per-Service
# switchboard isolation test TestServiceSwitchboardIsolation), the
# fault-injection Set (TestConcurrentHits: Arm/Disarm flips racing hot-path
# Hit calls on one Set) and the telemetry layer (TestConcurrentObserve,
# TestLoggerConcurrentLinesDoNotInterleave); -short keeps it under a few
# seconds. `make race` runs the same package list.
RACE_PKGS="./internal/core/... ./internal/stream/... ./internal/server/... ./internal/fault/... ./internal/obs/..."
echo "== go test -race -short $RACE_PKGS"
go test -race -short $RACE_PKGS

# Isolation flake gate (`make isolation`): the experiment smoke test, with
# chaos's armed fault storm running beside every other experiment, and the
# two-Service switchboard isolation test, repeated under GOMAXPROCS 1 and 2.
echo "== isolation gate (TestExperimentsSmoke, TestServiceSwitchboardIsolation; -count=3 -cpu 1,2)"
go test -count=3 -cpu 1,2 -run 'TestExperimentsSmoke|TestServiceSwitchboardIsolation' ./internal/harness ./internal/server

# Fuzz gate: a short random-exploration budget per native fuzz target on
# top of the committed seed corpora; any crasher fails the gate.
FUZZTIME="${FUZZTIME:-10s}"
echo "== fuzz gate (5 targets, $FUZZTIME each)"
go test -run '^$' -fuzz '^FuzzDecodeIngest$' -fuzztime "$FUZZTIME" ./internal/server
go test -run '^$' -fuzz '^FuzzDecodeAssign$' -fuzztime "$FUZZTIME" ./internal/server
go test -run '^$' -fuzz '^FuzzDecodeReplicate$' -fuzztime "$FUZZTIME" ./internal/server
go test -run '^$' -fuzz '^FuzzCheckpointDecode$' -fuzztime "$FUZZTIME" ./internal/checkpoint
go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime "$FUZZTIME" ./internal/fault

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
