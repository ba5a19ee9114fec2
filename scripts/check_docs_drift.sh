#!/usr/bin/env bash
# Docs-drift gate: the scenario-key registry (willow_cli --keys, which is
# also the parser: src/sim/scenario_io.cc dispatches every key through it)
# and the manual (docs/scenario_format.md) must list the same keys, in both
# directions.  Also checks that every local markdown link in README.md and
# docs/*.md resolves.
#
#   scripts/check_docs_drift.sh <path-to-willow_cli> [repo-root] [all|keys|links]
set -euo pipefail

CLI="${1:?usage: check_docs_drift.sh <path-to-willow_cli> [repo-root] [all|keys|links]}"
ROOT="${2:-$(cd "$(dirname "$0")/.." && pwd)}"
MODE="${3:-all}"

fail=0
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# --- the two key sets -------------------------------------------------------

if [ "$MODE" = "all" ] || [ "$MODE" = "keys" ]; then

# 1. Registry: the scenario_keys() table the CLI exports and the parser reads.
"$CLI" --keys | cut -f1 | sort -u > "$tmp/registry"

# 2. Manual: every backticked token in the FIRST column of a table row in
#    docs/scenario_format.md (handles combined rows like `eta1` / `eta2`).
awk -F'|' '/^\|/ { print $2 }' "$ROOT/docs/scenario_format.md" |
  grep -o '`[a-z0-9_]*`' | tr -d '`' | sort -u > "$tmp/docs"

compare() {  # compare <a-name> <a-file> <b-name> <b-file>
  local missing
  missing="$(comm -23 "$2" "$4")"
  if [ -n "$missing" ]; then
    echo "DRIFT: keys in $1 but not in $3:" >&2
    echo "$missing" | sed 's/^/  /' >&2
    fail=1
  fi
}

compare "registry" "$tmp/registry" "docs"     "$tmp/docs"
compare "docs"     "$tmp/docs"     "registry" "$tmp/registry"

if [ "$fail" = 0 ]; then
  echo "scenario keys: $(wc -l < "$tmp/registry") in registry/docs, both agree"
fi

# The registry's samples must form a valid scenario when concatenated —
# this is what makes --keys trustworthy as documentation.
"$CLI" --keys | awk -F'\t' '{ print $1 " = " $2 }' > "$tmp/all_keys.scn"
if ! "$CLI" --check "$tmp/all_keys.scn" > /dev/null; then
  echo "DRIFT: concatenated registry samples fail --check" >&2
  fail=1
fi

fi  # keys

# --- markdown local links ---------------------------------------------------

if [ "$MODE" = "all" ] || [ "$MODE" = "links" ]; then

check_links() {  # check_links <markdown-file>
  local md="$1" dir target
  dir="$(dirname "$md")"
  # [text](target) — skip external links and pure anchors.  The greps exit
  # non-zero on a file with no local links; that is not an error.
  { grep -o '](\([^)]*\))' "$md" || true; } | sed 's/^](\(.*\))$/\1/' |
    { grep -v -e '^https\?://' -e '^mailto:' -e '^#' || true; } |
    sed 's/#.*$//' | sort -u |
  while read -r target; do
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ]; then
      echo "DEAD LINK: $md -> $target" >&2
      echo bad >> "$tmp/badlinks"
    fi
  done
}

for md in "$ROOT/README.md" "$ROOT"/docs/*.md; do
  check_links "$md"
done
if [ -s "$tmp/badlinks" ]; then
  fail=1
else
  echo "markdown links: ok"
fi

fi  # links

exit "$fail"
