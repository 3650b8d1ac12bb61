#!/usr/bin/env python3
"""Tiny-size self-test of the repository benchmark.

Runs every workload of BENCHMARK.json on tiny inputs, untraced and
traced, and checks the result line against the benchmark's contract:
exit code 0, a last line holding exactly correct/attempted/failed/
metrics, every output check passed, and exactly the end-to-end (or,
traced, per-layer) metrics of BENCHMARK.json with their units.

Usage, from the repository root:  python3 perfbench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    label = f"{workload} trace={trace}"
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit code {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"{label}: no JSON result line ({e})"] + errors
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int) or result["failed"] != 0:
        errors.append("failed must be 0")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in wanted]:
        errors.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if set(got) != {"value", "unit"} or got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: {got}")
        elif not math.isfinite(got["value"]):
            errors.append(f"{m['name']}: not finite")
        elif not trace and got["value"] == 0:
            errors.append(f"{m['name']}: end-to-end metric is 0")
    return [f"{label}: {e}" for e in errors]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errs = check_run(spec, w["name"], trace)
            print(f"{w['name']} trace={trace}: "
                  f"{'ok' if not errs else 'FAILED'}")
            failures += errs
    for e in failures:
        print(e, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
