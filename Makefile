# Canonical tier-1 gate for this repository. `make check` is what CI and
# every PR must keep green; the individual targets exist for quick local
# iteration.

GO ?= go

.PHONY: check vet build test race isolation chaos fuzz bench bench-smoke bench-all docs reach

check: vet build test race isolation chaos fuzz bench-smoke docs reach

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector gate over the worker pool behind the parallel Gonzalez
# traversal (TestPoolConcurrentTraversals), the concurrent streaming
# ingestion path (TestShardedConcurrentProducers, TestShardedSnapshotRace),
# the serving layer (TestConcurrentIngestAssignSnapshot, the multi-tenant
# create/ingest/assign/checkpoint test TestConcurrentTenantLifecycle and
# the assign linearizability test TestAssignLinearizable, and the per-Service
# switchboard isolation test TestServiceSwitchboardIsolation), the
# fault-injection Set (TestConcurrentHits: Arm/Disarm flips racing hot-path
# Hit calls on one Set), the telemetry layer (TestConcurrentObserve,
# TestLoggerConcurrentLinesDoNotInterleave), the harness loopback fixture
# that the serving experiments share (their TestRun* tests, the chaos nudge
# tally TestRunChaosCountsNudges and the replicate shutdown test
# TestRunServeReplicateErrorStopsGoroutines), the simulated MapReduce engine
# and MRG, whose reducers run concurrently over shared slices, and EIM's
# reducers, which all read the carried-distance slice (TestRunMatchesFullRescan
# and TestRoundOpsChargeOnlyNewSample at small n; the whole EIM package takes
# ~20 s under -race); -short keeps it under a few seconds. scripts/check.sh runs
# the same package list, harness tests and EIM tests.
RACE_HARNESS = TestRun(Serve|Restart|ObsOverhead|Chaos)|TestRunChaosCountsNudges|TestRunServeReplicateErrorStopsGoroutines
RACE_EIM = TestRunMatchesFullRescan|TestRoundOpsChargeOnlyNewSample
race:
	$(GO) test -race -short ./internal/core/... ./internal/stream/... ./internal/server/... ./internal/fault/... ./internal/obs/... ./internal/mapreduce/... ./internal/mrg/...
	$(GO) test -race -short -run '$(RACE_HARNESS)' ./internal/harness
	$(GO) test -race -short -run '$(RACE_EIM)' ./internal/eim

# Isolation flake gate: the experiment smoke test (every experiment in
# parallel, chaos's armed fault storm among them) and the two-Service
# switchboard isolation test, repeated under GOMAXPROCS 1 and 2. A fault
# rule or telemetry switch leaking from one Service into another shows up
# here as an injected panic or a degraded tenant in the wrong experiment.
isolation:
	$(GO) test -count=3 -cpu 1,2 -run 'TestExperimentsSmoke|TestServiceSwitchboardIsolation' ./internal/harness ./internal/server

# Chaos gate: the fault-injection storm from internal/harness — mixed
# traffic while shard panics, ingest delays and checkpoint fsync failures
# fire. The experiment itself enforces the four robustness assertions
# (process survives, quiet tenants unaffected, every lost point accounted
# for, restart recovers bit-identically from the last good checkpoint),
# so a zero exit IS the pass. Scale 10 keeps it under ~2s; raise -scale
# for a longer storm.
chaos:
	$(GO) run ./cmd/experiments -exp chaos -scale 10

# Fuzz gate: a short budget per native fuzz target — the HTTP decoders
# (pooled buffers must never alias into a response, and the points codec
# must accept, reject and parse exactly as encoding/json does), the replication
# receiver (arbitrary bytes must answer a documented 4xx and never
# half-merge), the checkpoint reader (arbitrary bytes must fail typed,
# never panic) and the fault-spec grammar. The committed seed corpora
# under */testdata/fuzz always run; FUZZTIME adds random exploration on
# top (raise it to hunt, e.g. `make fuzz FUZZTIME=5m`).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeIngest$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAssign$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReplicate$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/fault

# Tier-1 bench smoke: one iteration of the kernel/assign/Gonzalez/stream
# benchmarks, JSON written to a scratch path so the committed baseline is
# untouched (see scripts/bench.sh).
bench-smoke:
	OUT=$${TMPDIR:-/tmp}/BENCH_kernels.smoke.json sh scripts/bench.sh

# Regenerate the committed BENCH_kernels.json baseline with stable timings.
# The parallel benchmarks are swept at -cpu 1,2 (see scripts/bench.sh), so
# the baseline records scaling, not just single-core cost.
bench:
	BENCHTIME=$${BENCHTIME:-2s} sh scripts/bench.sh

# The full paper-artifact suite (figures/tables/ablations), one iteration.
bench-all:
	$(GO) test -run XXX -bench . -benchtime 1x .

# Docs gate: gofmt, one package comment per package, README/ARCHITECTURE
# link and make-target integrity (see scripts/docscheck.sh).
docs:
	sh scripts/docscheck.sh

# Reachability gate: every internal/ package must be imported, directly or
# not, by the facade, a command or an example, so code that only tests
# reach cannot accumulate (see scripts/reachcheck.sh).
reach:
	sh scripts/reachcheck.sh
