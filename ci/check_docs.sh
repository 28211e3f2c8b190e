#!/usr/bin/env bash
# Documentation consistency gate, run by ci/sanitize.sh and ci/tsan.sh (or
# standalone). Three checks:
#
#  1. Markdown link check: every relative link target referenced from the
#     top-level docs and docs/*.md must exist in the tree (external http(s)
#     links are not fetched).
#  2. Doc-drift check: every field of the user-facing option structs
#     (runtime::ClusterConfig, runtime::FaultConfig, runtime::spill::
#     SpillConfig, exec::ExecOptions) must be mentioned by name somewhere in
#     the documentation, so adding a knob without documenting it fails CI.
#  3. Counter-table check: every row of the TRANCE_STAGE_COUNTERS table
#     (src/runtime/stage_counters.h) must appear as a backticked table row
#     (a line starting "| `name` |") in docs/METRICS.md, so a new counter
#     cannot ship undocumented.
#
# Usage: ci/check_docs.sh
set -euo pipefail

cd "$(dirname "$0")/.."

DOCS=(README.md DESIGN.md EXPERIMENTS.md docs/ARCHITECTURE.md docs/METRICS.md docs/STORAGE.md)
fail=0

# --- 1. relative markdown links -----------------------------------------
for doc in "${DOCS[@]}"; do
  [ -f "$doc" ] || { echo "MISSING DOC: $doc"; fail=1; continue; }
  dir=$(dirname "$doc")
  # [text](target) links, minus externals, anchors and mailto.
  while IFS= read -r target; do
    target="${target%%#*}"            # strip fragment
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "BROKEN LINK in $doc: $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//' |
           grep -vE '^(https?:|mailto:|#)' || true)
done

# --- 2. option-struct fields must appear in the docs --------------------
# Extracts field names from a struct definition: lines like
#   <type> <name> = <default>;   or   <type> <name>;
fields_of() { # file struct_name
  awk -v s="struct $2 {" '
    index($0, s) { in_s = 1; next }
    in_s && /^};/ { in_s = 0 }
    in_s' "$1" |
    grep -vE '^\s*(//|/\*|\*)' |
    grep -oE '[A-Za-z_][A-Za-z0-9_]*\s*(=[^;]*)?;' |
    sed -E 's/\s*=.*$//; s/;$//' | sed -E 's/^\s+|\s+$//g'
}

check_struct() { # file struct_name
  local f
  for f in $(fields_of "$1" "$2"); do
    if ! grep -qF "$f" "${DOCS[@]}"; then
      echo "UNDOCUMENTED FIELD: $2::$f (from $1) appears in none of: ${DOCS[*]}"
      fail=1
    fi
  done
}

check_struct src/runtime/cluster.h ClusterConfig
check_struct src/runtime/fault.h FaultConfig
check_struct src/runtime/spill.h SpillConfig
check_struct src/exec/lowering.h ExecOptions

# --- 3. counter-table rows must be METRICS.md table rows ----------------
counters=$(grep -oE '^\s*X\([a-z_0-9]+,' src/runtime/stage_counters.h |
           sed -E 's/^\s*X\(//; s/,$//')
if [ -z "$counters" ]; then
  echo "NO COUNTER ROWS found in src/runtime/stage_counters.h"
  fail=1
fi
for c in $counters; do
  if ! grep -qF "| \`$c\` |" docs/METRICS.md; then
    echo "UNDOCUMENTED COUNTER: $c (TRANCE_STAGE_COUNTERS row) has no \`$c\` table row in docs/METRICS.md"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK (${#DOCS[@]} docs, links + option-struct + counter-table coverage)"
