# Canonical tier-1 gate for this repository. `make check` is what CI and
# every PR must keep green; the individual targets exist for quick local
# iteration.

GO ?= go

.PHONY: check vet build test race chaos fuzz bench bench-smoke bench-all docs

check: vet build test race chaos fuzz bench-smoke docs

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
# the assign linearizability test TestAssignLinearizable), the
# fault-injection switchboard (TestConcurrentHits: armed/disarmed flips
# racing hot-path Hit calls) and the telemetry registry (TestConcurrentObserve,
# TestLoggerConcurrentLinesDoNotInterleave); -short keeps it under a few
# seconds. scripts/check.sh runs the same package list.
race:
	$(GO) test -race -short ./internal/core/... ./internal/stream/... ./internal/server/... ./internal/fault/... ./internal/obs/...

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
# (pooled buffers must never alias into a response), the replication
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
# The parallel benchmarks are swept at -cpu 1,4 (see scripts/bench.sh), so
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
