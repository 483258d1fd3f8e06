#!/bin/sh
# Benchmark-trajectory gate: runs the kernel, assignment, Gonzalez, EIM,
# streaming, serving, request-codec and CSV-loading benchmarks and emits
# BENCH_kernels.json with ns/op, B/op and allocs/op per benchmark (all
# runs use -benchmem), so every change leaves a comparable perf record.
#
# The parallel benchmark (sharded ingestion) is additionally swept with
# -cpu 1,2 so the baseline records how it scales with GOMAXPROCS, not just
# its single-core cost (2 is the core count of the 2-vCPU hosts this suite
# is run on; a GOMAXPROCS above the host's cores measures
# oversubscription, not scaling); every JSON entry carries the
# "gomaxprocs" it ran under (parsed from the -N name suffix Go appends),
# and the file header records the host's CPU count, so a 1-vCPU parity
# row is not misread as a scaling regression — see ARCHITECTURE.md,
# "Parallel execution model".
#
#   BENCHTIME=1x  (default) one iteration per benchmark: a compile +
#                 smoke pass, cheap enough for the tier-1 gate. The ns/op
#                 of a single iteration is noisy; the checked-in baseline
#                 is produced with BENCHTIME=2s.
#   OUT=path      output file (default BENCH_kernels.json in the repo root)
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
OUT="${OUT:-BENCH_kernels.json}"
# Serial suite: everything except the parallel sweep below.
PATTERN='^(BenchmarkKernel|BenchmarkEvaluate|BenchmarkGonzalezUNIF2D$|BenchmarkGonzalezGAU2D$|BenchmarkGonzalez$|BenchmarkGonzalezShapes$|BenchmarkStreamPush|BenchmarkServe|BenchmarkDecodePoints|BenchmarkEncodeAssign|BenchmarkReplicateMerge$|BenchmarkEIM$|BenchmarkLoadCSV$|BenchmarkNearestBatchShapes$|BenchmarkSweepLower$)'
# Parallel suite, run under -cpu 1,2: the 1 row is the single-core
# baseline, the 2 row is what the shard fan-out buys (or costs) at 2-way
# GOMAXPROCS on this host.
PAR_PATTERN='^BenchmarkShardedThroughput$'

NUM_CPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# No pipe here: POSIX sh has no pipefail, and piping through tee would let
# a failing `go test` (bench panic, broken TestMain) slip past set -e.
go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" -count 1 -benchmem \
	./internal/metric/ ./internal/assign/ ./internal/core/ ./internal/server/ ./internal/eim/ ./internal/dataset/ . > "$tmp"
go test -run '^$' -bench "$PAR_PATTERN" -benchtime "$BENCHTIME" -count 1 -benchmem \
	-cpu 1,2 . >> "$tmp"
cat "$tmp"

awk -v benchtime="$BENCHTIME" -v goversion="$(go env GOVERSION)" -v numcpu="$NUM_CPU" '
BEGIN { n = 0 }
/^pkg: / { pkg = $2 }
/^Benchmark/ && $3 ~ /^[0-9.]+$/ && $4 == "ns/op" {
	name = $1
	# Go suffixes benchmark names with -GOMAXPROCS when it is not 1; keep
	# it as a field rather than part of the name so the serial row and the
	# -cpu 2 row of the same benchmark stay joinable.
	procs = 1
	if (match(name, /-[0-9]+$/)) {
		procs = substr(name, RSTART + 1) + 0
		name = substr(name, 1, RSTART - 1)
	}
	# After the iteration count come (value, unit) pairs: ns/op, any
	# b.ReportMetric values, then the B/op and allocs/op of -benchmem.
	bytes = "null"; allocs = "null"
	for (f = 3; f < NF; f += 2) {
		if ($(f + 1) == "B/op") bytes = $f
		if ($(f + 1) == "allocs/op") allocs = $f
	}
	names[n] = name; pkgs[n] = pkg; ns[n] = $3; procsOf[n] = procs
	bytesOf[n] = bytes; allocsOf[n] = allocs; n++
}
END {
	printf "{\n"
	printf "  \"generated_by\": \"scripts/bench.sh\",\n"
	printf "  \"go\": \"%s\",\n", goversion
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"num_cpu\": %d,\n", numcpu
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++) {
		printf "    {\"package\": \"%s\", \"name\": \"%s\", \"gomaxprocs\": %d, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			pkgs[i], names[i], procsOf[i], ns[i], bytesOf[i], allocsOf[i], (i < n-1 ? "," : "")
	}
	printf "  ]\n}\n"
}' "$tmp" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks, num_cpu=$NUM_CPU)"
