#!/bin/sh
# Docs gate, part of `make check` (see scripts/check.sh). Five checks:
#
#   1. gofmt: no file may need reformatting.
#   2. Package comments: every package has exactly one package doc comment
#      (a comment block immediately above a `package` clause in a non-test
#      file). Zero means the package is undocumented; more than one means
#      godoc picks arbitrarily and the docs drift.
#   3. Link integrity: every repo-relative path in backticks or markdown
#      links in README.md and ARCHITECTURE.md must exist, and every
#      `make <target>` mentioned must be a real target in the Makefile.
#   4. Wire-format sync: every /v1/* route registered in internal/server
#      must be documented in README.md and examples/serving/README.md, so
#      the wire-format docs cannot silently fall behind the handler table.
#   5. CLI flag sync: every backticked `-flag` in README.md, ARCHITECTURE.md
#      and examples/serving/README.md must be a flag registered in
#      cmd/kcenter/main.go (Go toolchain flags such as -race are exempt), so
#      a removed or renamed flag cannot linger in the docs.
#
# Exits non-zero with a list of violations.
set -eu

cd "$(dirname "$0")/.."

fail=0

echo "== docs gate: gofmt -l"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed:"
	echo "$unformatted"
	fail=1
fi

echo "== docs gate: package comments"
# For each non-test .go file, report "<dir> <file>" when the line directly
# above the package clause belongs to a comment; then require exactly one
# documented file per package directory.
docs_per_pkg="$(git ls-files '*.go' | grep -v '_test\.go$' | while read -r f; do
	awk -v f="$f" '
		/^\/\// { in_comment = 1; last = NR; next }
		/^package / { if (in_comment && last == NR - 1) { n = split(f, parts, "/"); dir = substr(f, 1, length(f) - length(parts[n]) - 1); if (dir == "") dir = "."; print dir, f }; exit }
		{ in_comment = 0 }
	' "$f"
done)"
for dir in $(git ls-files '*.go' | grep -v '_test\.go$' | xargs -n1 dirname | sort -u); do
	count="$(printf '%s\n' "$docs_per_pkg" | awk -v d="$dir" '$1 == d' | wc -l)"
	if [ "$count" -eq 0 ]; then
		echo "package $dir has no package comment"
		fail=1
	elif [ "$count" -gt 1 ]; then
		echo "package $dir has $count package comments (godoc will pick one arbitrarily):"
		printf '%s\n' "$docs_per_pkg" | awk -v d="$dir" '$1 == d { print "  " $2 }'
		fail=1
	fi
done

echo "== docs gate: README/ARCHITECTURE link integrity"
for doc in README.md ARCHITECTURE.md; do
	if [ ! -f "$doc" ]; then
		echo "$doc missing"
		fail=1
		continue
	fi
	# Candidate paths: backticked tokens and markdown link targets that look
	# like repo-relative files or directories (contain a '/' or a known doc
	# extension; no spaces, no URLs, no flags, no globs or placeholders).
	paths="$(grep -o '`[^`]*`\|]([^)]*)' "$doc" \
		| sed -e 's/^`//' -e 's/`$//' -e 's/^](//' -e 's/)$//' \
		| grep -E '^[A-Za-z0-9_./-]+$' \
		| grep -E '/|\.(md|json|sh|go|mod)$' \
		| grep -vE '^(https?:|/)' \
		| grep -vE '\.(ckpt|csv|data)$' \
		| sort -u)"
	for p in $paths; do
		if [ ! -e "$p" ]; then
			echo "$doc references $p, which does not exist"
			fail=1
		fi
	done
	# Backticked `make <target>` references must name real Makefile targets
	# (prose uses of the verb "make" are not references).
	for target in $(grep -oE '`make [a-z][a-z-]*' "$doc" | awk '{print $2}' | sort -u); do
		if ! grep -qE "^$target:" Makefile; then
			echo "$doc references 'make $target', which is not a Makefile target"
			fail=1
		fi
	done
done

echo "== docs gate: route sync (/v1 and /metrics)"
# The pprof mounts under /debug/pprof/ are deliberately outside this gate:
# they are the Go-standard surface, gated by a flag, not service API.
routes="$(grep -hoE 'HandleFunc\("(/v1/[a-z]+|/metrics)"' internal/server/*.go | sed -E 's/HandleFunc\("([^"]*)"/\1/' | sort -u)"
if [ -z "$routes" ]; then
	echo "no routes found in internal/server (extraction broken?)"
	fail=1
fi
for rt in $routes; do
	for doc in README.md examples/serving/README.md; do
		if ! grep -q "$rt" "$doc"; then
			echo "$doc does not document route $rt (registered in internal/server)"
			fail=1
		fi
	done
done

echo "== docs gate: CLI flag sync (cmd/kcenter)"
flags="$(grep -oE 'fs\.[A-Z][A-Za-z0-9]*\("[a-z][a-z0-9-]*"' cmd/kcenter/main.go | sed -E 's/.*\("([^"]*)"/\1/' | sort -u)"
if [ -z "$flags" ]; then
	echo "no flags found in cmd/kcenter/main.go (extraction broken?)"
	fail=1
fi
# Go toolchain flags the docs quote when describing test and bench runs.
toolchain_flags="race cpu"
for doc in README.md ARCHITECTURE.md examples/serving/README.md; do
	for fl in $(grep -oE '`-[A-Za-z][A-Za-z0-9-]*' "$doc" | sed 's/^`-//' | sort -u); do
		if ! printf '%s\n' $flags $toolchain_flags | grep -qx -- "$fl"; then
			echo "$doc mentions -$fl, which is not a flag registered in cmd/kcenter/main.go"
			fail=1
		fi
	done
done

if [ "$fail" -ne 0 ]; then
	echo "docs gate FAILED"
	exit 1
fi
echo "docs gate OK"
