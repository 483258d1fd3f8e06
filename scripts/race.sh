#!/bin/sh
# Race-detector gate, run by `make race` and scripts/check.sh; this file is
# the one list of what it covers. -short keeps it under a few seconds.
#
# Packages under -race: the concurrent streaming ingestion path
# (TestShardedConcurrentProducers, and TestShardedSnapshotRace, whose 2-D
# points at k = 12 make the shard goroutines rebuild each summary's sorted
# coverage sweep while Snapshot readers run), the serving
# layer (TestConcurrentIngestAssignSnapshot, the multi-tenant
# create/ingest/assign/checkpoint test TestConcurrentTenantLifecycle, the
# assign linearizability test TestAssignLinearizable and the per-Service
# switchboard isolation test TestServiceSwitchboardIsolation), the
# fault-injection Set (TestConcurrentHits: Arm/Disarm flips racing hot-path
# Hit calls on one Set), the telemetry layer (TestConcurrentObserve,
# TestLoggerConcurrentLinesDoNotInterleave), and the simulated MapReduce
# engine and MRG, whose reducers run concurrently over one shared Dataset
# and borrow traversal scratch from a per-run free list
# (TestMRGMatchesIndexPartitions at engine workers 1 and 3).
#
# RACE_HARNESS: the harness loopback fixture that the restart, chaos and
# serve-replicate experiments share (TestRunRestartWarmMatchesKilledState,
# TestRunChaos, the chaos nudge tally TestRunChaosCountsNudges and the
# replicate shutdown test TestRunServeReplicateErrorStopsGoroutines).
#
# RACE_ASSIGN: Evaluate's workers, which share the grid filter's candidate
# lists and write disjoint chunks of one Evaluation
# (TestGridFilterBitIdentical at one small shape,
# TestEvaluateParallelDeterminism).
#
# RACE_EIM: EIM's reducers, which all read the carried-distance slice
# (TestRunMatchesFullRescan and TestRoundOpsChargeOnlyNewSample at small n;
# the whole EIM package takes ~20 s under -race).
#
# RACE_CORE: the blocked farthest-first traversal's workers, which build one
# layout and relax disjoint blocks of it in each round
# (TestGonzalezBlockedWorkersBitIdentical at worker counts 1, 2, 3 and 7,
# beside TestGonzalezBlockedBitIdentical, at one blocked shape).
#
# RACE_DATASET: LoadCSV's workers, which parse blocks of lines cut from the
# reader's pooled buffers and write each block's own rows
# (TestLoadCSVChunksMatchRows, TestLoadCSVChunksStopGoroutines and
# TestLoadCSVChunksEndlessReader, at blocks of a few bytes on 1–4 workers).
set -eu

cd "$(dirname "$0")/.."

GO="${GO:-go}"
RACE_PKGS="./internal/stream/... ./internal/server/... ./internal/fault/... ./internal/obs/... ./internal/mapreduce/... ./internal/mrg/..."
RACE_HARNESS='TestRun(Restart|Chaos)|TestRunServeReplicateErrorStopsGoroutines'
RACE_ASSIGN='TestGridFilterBitIdentical|TestEvaluateParallelDeterminism'
RACE_EIM='TestRunMatchesFullRescan|TestRoundOpsChargeOnlyNewSample'
RACE_CORE='TestGonzalezBlocked'
RACE_DATASET='TestLoadCSVChunks'

echo "== go test -race -short $RACE_PKGS"
$GO test -race -short $RACE_PKGS
echo "== go test -race -short -run '$RACE_HARNESS' ./internal/harness"
$GO test -race -short -run "$RACE_HARNESS" ./internal/harness
echo "== go test -race -short -run '$RACE_ASSIGN' ./internal/assign"
$GO test -race -short -run "$RACE_ASSIGN" ./internal/assign
echo "== go test -race -short -run '$RACE_EIM' ./internal/eim"
$GO test -race -short -run "$RACE_EIM" ./internal/eim
echo "== go test -race -short -run '$RACE_CORE' ./internal/core"
$GO test -race -short -run "$RACE_CORE" ./internal/core
echo "== go test -race -short -run '$RACE_DATASET' ./internal/dataset"
$GO test -race -short -run "$RACE_DATASET" ./internal/dataset
