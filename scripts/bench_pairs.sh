#!/usr/bin/env bash
# Paired same-host benchmark of the working tree against a parent revision.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs] [seed]
#
# Builds both sides from fresh copies in a temporary directory — the parent
# with `git archive <parent-rev>`, the working tree (uncommitted changes
# included) by copying its tracked and unignored files — so neither build
# shares a tree with the checkout and nothing is registered in the
# repository.  Then runs `perfbench/run.py --workload W --seed S --seconds T
# --trace 0` in alternating pairs (default 10, seed 1), flipping which side
# runs first in each pair so drift on a shared host hits both equally, and
# prints, for every end-to-end metric BENCHMARK.json declares, each side's
# median and quartiles, the median ratio and the number of pairs the change
# won.  The decision fingerprints of the two sides are compared too: a pure
# performance change must leave them equal.
#
# T is BENCHMARK.json's run_seconds, the run length the benchmark itself
# uses.  The temporary directory is removed on exit.  Nothing under
# perfbench/ changes.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <parent-rev> <workload> [pairs] [seed]" >&2
  exit 2
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
REV="$1"
WORKLOAD="$2"
PAIRS="${3:-10}"
SEED="${4:-1}"
SECONDS_PER_RUN="$(python3 -c \
  'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$ROOT/BENCHMARK.json")"

TMP="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT

mkdir -p "$TMP/parent" "$TMP/change"
git -C "$ROOT" archive "$REV" | tar -x -C "$TMP/parent"
git -C "$ROOT" ls-files -z --cached --others --exclude-standard |
  python3 -c '
import os, shutil, sys
root, dest = sys.argv[1], sys.argv[2]
for rel in sys.stdin.buffer.read().decode().split("\0"):
    src = os.path.join(root, rel)
    if rel and os.path.isfile(src):  # skip deletions not yet committed
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))
' "$ROOT" "$TMP/change"

# One run: the result JSON (last stdout line) and the fingerprint line
# before it, appended to <side>.jsonl.
run_side() {
  local side="$1"
  python3 "$TMP/$side/perfbench/run.py" --workload "$WORKLOAD" --seed "$SEED" \
    --seconds "$SECONDS_PER_RUN" --trace 0 2>>"$TMP/$side.log" |
    tail -n 2 | tr '\n' '\t' >>"$TMP/$side.jsonl"
  echo >>"$TMP/$side.jsonl"
}

echo "bench_pairs: building both sides" >&2
for side in parent change; do
  python3 "$TMP/$side/perfbench/run.py" --workload "$WORKLOAD" --seed "$SEED" \
    --seconds 0 --trace 0 >/dev/null 2>>"$TMP/$side.log"
done
for ((i = 0; i < PAIRS; ++i)); do
  if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
  for side in $order; do run_side "$side"; done
  echo "bench_pairs: pair $((i + 1))/$PAIRS done" >&2
done

python3 - "$ROOT/BENCHMARK.json" "$TMP/parent.jsonl" "$TMP/change.jsonl" \
  "$WORKLOAD" "$SEED" <<'EOF'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))

def load(path):
    runs = []
    for line in open(path):
        parts = [p for p in line.rstrip("\n").split("\t") if p]
        info, result = json.loads(parts[0]), json.loads(parts[1])
        runs.append((info.get("fingerprint"), result))
    return runs

parent, change = load(sys.argv[2]), load(sys.argv[3])
print(f"workload {sys.argv[4]}, seed {sys.argv[5]}, {len(parent)} pairs")

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

print(f"{'metric':22} {'parent q1/med/q3':>34} {'change q1/med/q3':>34}"
      f" {'ratio':>7} {'wins':>6}")
for m in bench["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    p = [r["metrics"][name]["value"] for _, r in parent]
    c = [r["metrics"][name]["value"] for _, r in change]
    wins = sum((cv > pv) if higher else (cv < pv) for pv, cv in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"{name:22} {fmt(pq):>34} {fmt(cq):>34} {ratio:7.3f}"
          f" {wins:3d}/{len(p)}")

print("failed operations: parent",
      sum(r["failed"] for _, r in parent), "change",
      sum(r["failed"] for _, r in change))
fps = {side: {fp for fp, _ in runs}
       for side, runs in (("parent", parent), ("change", change))}
print("decision fingerprints:",
      "equal" if fps["parent"] == fps["change"] and len(fps["parent"]) == 1
      else f"DIFFER parent={sorted(fps['parent'])} change={sorted(fps['change'])}")
EOF
