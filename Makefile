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

# Race-detector gate: the package list and the harness, assign, EIM and
# core test regexes live in scripts/race.sh, which scripts/check.sh runs too.
race:
	GO=$(GO) sh scripts/race.sh

# Isolation flake gate: the experiment smoke test (every experiment in
# parallel, chaos's armed fault storm among them) and the two-Service
# switchboard isolation test, repeated under GOMAXPROCS 1 and 2. A fault
# rule or telemetry switch leaking from one Service into another is caught
# by TestServiceSwitchboardIsolation, which arms both on one Service and
# asserts the other sees no hit, sample or degraded tenant.
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

# Fuzz gate: a short budget per native fuzz target on top of the committed
# seed corpora; the target list lives in scripts/fuzz.sh, which
# scripts/check.sh runs too. FUZZTIME adds random exploration (raise it to
# hunt, e.g. `make fuzz FUZZTIME=5m`).
FUZZTIME ?= 10s
fuzz:
	GO=$(GO) FUZZTIME=$(FUZZTIME) sh scripts/fuzz.sh

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
# not, by the facade or a command; examples do not count, so code that only
# tests or examples reach cannot accumulate (see scripts/reachcheck.sh).
reach:
	sh scripts/reachcheck.sh
