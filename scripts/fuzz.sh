#!/bin/sh
# Fuzz gate, run by `make fuzz` and scripts/check.sh; this file is the one
# list of fuzz targets. Each native target gets a short budget: the HTTP
# decoders (pooled buffers must never alias into a response, and the points
# codec must accept, reject and parse exactly as encoding/json does), the
# replication receiver (arbitrary bytes must answer a documented 4xx and
# never half-merge), the checkpoint decoder (arbitrary bytes must fail typed,
# never panic; the seeds also go through Read from a file), the fault-spec grammar and the CSV row reader (the byte-level
# scan must deliver the rows, count and error text of the string-based
# reader it replaced). The committed seed corpora under
# */testdata/fuzz always run; FUZZTIME (default 10s) adds random exploration
# on top (raise it to hunt, e.g. `FUZZTIME=5m sh scripts/fuzz.sh`). Any
# crasher fails the gate. -fuzzminimizetime 1s bounds how long the engine
# minimizes each new interesting input or crasher: unbounded, minimizing a
# replication frame took the rest of a 10 s budget at 0 execs/s. A crasher
# still fails the gate; only how far it is shrunk is bounded.
set -eu

cd "$(dirname "$0")/.."

GO="${GO:-go}"
FUZZTIME="${FUZZTIME:-10s}"

echo "== fuzz gate (6 targets, $FUZZTIME each)"
for target in \
	'FuzzDecodeIngest ./internal/server' \
	'FuzzDecodeAssign ./internal/server' \
	'FuzzDecodeReplicate ./internal/server' \
	'FuzzCheckpointDecode ./internal/checkpoint' \
	'FuzzParseSpec ./internal/fault' \
	'FuzzForEachCSVRow ./internal/dataset'; do
	set -- $target
	$GO test -run '^$' -fuzz "^$1\$" -fuzztime "$FUZZTIME" -fuzzminimizetime 1s "$2"
done
