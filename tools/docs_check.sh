#!/bin/sh
# docs-check: fail on drift between the code's registered surfaces and the
# docs that describe them. Three checks:
#
#   metrics   every metric declared in the X-macro tables of
#             src/common/pipeline_metrics.h
#               X(field, "family/event", "unit", "help...")
#             appears as the first backticked cell of a docs/METRICS.md
#             table row, and vice versa;
#   backends  the registered counting backend names (the
#             `if (name == "...")` lines of ParseCountingBackend, in
#             declaration order) appear pipe-joined — `scalar|simd|sharded`
#             — in docs/CLI.md, so a backend added to the registry cannot
#             ship undocumented;
#   flags     every `"--flag"` literal in examples/remedy_cli.cpp and
#             examples/remedy_serve.cpp has a backticked `--flag` mention
#             in docs/CLI.md, and every documented flag exists in the code
#             (symmetric, so renames cannot leave stale docs behind).
#
# Exits 1 printing the drift. Wired up as the `docs_check` ctest and the
# `docs-check` build target.
#
# Usage: docs_check.sh [repo-root]
set -u

root="${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}"
header="$root/src/common/pipeline_metrics.h"
doc="$root/docs/METRICS.md"
cli_doc="$root/docs/CLI.md"
counting_cc="$root/src/core/counting_backend.cc"
cli_src="$root/examples/remedy_cli.cpp"
serve_src="$root/examples/remedy_serve.cpp"

fail=0
for f in "$header" "$doc" "$cli_doc" "$counting_cc" "$cli_src" \
         "$serve_src"; do
  if [ ! -f "$f" ]; then
    echo "docs-check: missing $f" >&2
    fail=1
  fi
done
[ "$fail" -eq 0 ] || exit 1

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# Registered names: the first quoted string of each X(...) row. The field
# name precedes it unquoted, so "the first string literal on the line that
# contains a slash" is exactly the metric name; units/help never contain '/'
# except in names, which only appear as that first literal.
sed -n 's/^ *X([a-z_0-9]*, *"\([a-z_0-9]*\/[a-z_0-9/]*\)".*/\1/p' \
  "$header" | sort -u > "$tmpdir/code"

# Documented names: first backticked cell of each table row.
sed -n 's/^| *`\([a-z_0-9]*\/[a-z_0-9/]*\)`.*/\1/p' "$doc" \
  | sort -u > "$tmpdir/docs"

if [ ! -s "$tmpdir/code" ]; then
  echo "docs-check: extracted no metric names from $header (pattern drift?)" >&2
  exit 1
fi

undocumented="$(comm -23 "$tmpdir/code" "$tmpdir/docs")"
stale="$(comm -13 "$tmpdir/code" "$tmpdir/docs")"

if [ -n "$undocumented" ]; then
  echo "docs-check: metrics registered in pipeline_metrics.h but missing from docs/METRICS.md:" >&2
  echo "$undocumented" | sed 's/^/  /' >&2
  fail=1
fi
if [ -n "$stale" ]; then
  echo "docs-check: metrics documented in docs/METRICS.md but not registered:" >&2
  echo "$stale" | sed 's/^/  /' >&2
  fail=1
fi

# --- backend-name drift ----------------------------------------------------
# The authoritative name list of the counting registry is
# ParseCountingBackend's `if (name == "...")` chain, read in declaration
# order and pipe-joined. The joined form is exactly what the CLI help and
# the docs print, so a plain substring check catches both a missing name
# and a reordered list.
counting_names="$(sed -n 's/^ *if (name == "\([a-z]*\)").*/\1/p' \
  "$counting_cc" | paste -sd'|' -)"
if [ -z "$counting_names" ]; then
  echo "docs-check: extracted no backend names (pattern drift in ParseCountingBackend?)" >&2
  exit 1
fi
if ! grep -qF "$counting_names" "$cli_doc"; then
  echo "docs-check: docs/CLI.md (counting backends) must spell out the" \
       "registered list \`$counting_names\` ($cli_doc)" >&2
  fail=1
fi

# --- CLI-flag drift --------------------------------------------------------
# Code side: exact `"--flag"` string literals in the two CLI front ends
# (comparison operands only — prose mentions always break the pattern with
# a space before the closing quote). The bare "--" prefix-check literal is
# dropped by the length filter (but `--T`, length 3, must survive it).
grep -ho '"--[A-Za-z-]*"' "$cli_src" "$serve_src" \
  | sed 's/"//g' | awk 'length > 2' | sort -u > "$tmpdir/flags_code"

# Docs side: backtick-opened `--flag tokens anywhere in docs/CLI.md. The
# closing backtick is NOT required, so table cells like `--tau-c x` or
# `--backend scalar|simd|sharded` count as documenting their flag.
grep -o '`--[A-Za-z-]*' "$cli_doc" \
  | sed 's/`//g' | sort -u > "$tmpdir/flags_docs"

if [ ! -s "$tmpdir/flags_code" ]; then
  echo "docs-check: extracted no CLI flags from the examples (pattern drift?)" >&2
  exit 1
fi

flags_undocumented="$(comm -23 "$tmpdir/flags_code" "$tmpdir/flags_docs")"
flags_stale="$(comm -13 "$tmpdir/flags_code" "$tmpdir/flags_docs")"
if [ -n "$flags_undocumented" ]; then
  echo "docs-check: flags parsed by remedy_cli/remedy_serve but missing from docs/CLI.md:" >&2
  echo "$flags_undocumented" | sed 's/^/  /' >&2
  fail=1
fi
if [ -n "$flags_stale" ]; then
  echo "docs-check: flags documented in docs/CLI.md but parsed by neither CLI:" >&2
  echo "$flags_stale" | sed 's/^/  /' >&2
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "docs-check: $(wc -l < "$tmpdir/code" | tr -d ' ') metrics," \
       "$(wc -l < "$tmpdir/flags_code" | tr -d ' ') flags and the" \
       "counting backend registry ($counting_names) in sync"
fi
exit "$fail"
