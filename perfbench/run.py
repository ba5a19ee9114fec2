#!/usr/bin/env python3
"""Willow benchmark entry point.

Builds the benchmark driver from the checkout's sources, runs one workload
for a time budget and prints, as its last stdout line, one JSON object with
the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload churn_10k --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics.  The line before the result carries the host fingerprint
(hardware threads, compiler, build type, commit), process CPU and wall time,
repetition count and the decision fingerprint.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
# Held out while the benchmark was written: confirm later claims on it.
HELD_OUT_SEED = 7919
# The driver must finish well inside the 180 s a run may take.
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the driver path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no Willow sources under {ROOT}/src")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "willow_perfbench")


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree of
    its own (an enclosing repository's HEAD would name the wrong code)."""
    try:
        r = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def source_digest():
    """SHA-256 over the sources the driver is built from (a commit stand-in
    for checkouts that are not git repositories)."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "bench", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if not x.startswith("."))
            paths += [os.path.join(d, f) for f in files
                      if f.endswith((".cc", ".h", ".txt", ".py"))]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken fleets, for the self-test")
    args = ap.parse_args()

    started = time.monotonic()
    expected = declared_metrics(args.trace)
    driver = build()
    log(f"built in {time.monotonic() - started:.1f} s")

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", os.path.join(os.path.dirname(driver),
                                        f"spans-{args.workload}.jsonl")]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=DRIVER_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"driver exited with {r.returncode}")
    lines = [x for x in r.stdout.splitlines() if x.strip()]
    if not lines:
        raise RuntimeError("driver printed nothing")
    out = json.loads(lines[-1])

    attempted, failed = out["attempted"], out["failed"]
    failures = list(out["failures"])
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    attempted += 1
    if got != expected:
        failed += 1
        failures.append(f"metric names/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}")
    host = dict(out["host"])
    host["nproc"] = len(os.sched_getaffinity(0))
    host["commit"] = git_commit()
    host["source_digest"] = source_digest()
    if not host["optimized"]:
        log("WARNING: the driver was built without optimisation; "
            "its timings are not comparable")
    for f in failures:
        log(f"check failed: {f}")

    print(json.dumps({
        "host": host, "workload": out["workload"], "seed": out["seed"],
        "trace": out["trace"], "reps": out["reps"], "wall_s": out["wall_s"],
        "cpu_s": out["cpu_s"], "fingerprint": out["fingerprint"],
        "failures": failures, "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)
