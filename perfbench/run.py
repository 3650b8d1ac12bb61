#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of train_sage, sample_epoch, serve_open, dist_sage, or
"all" to run the four one after another.  The script configures and
builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the perfbench binary with
one thread per core and the runtime validators off.  The binary's
report goes to standard output; its last line is the JSON result.
A failed build or a failed output check exits non-zero.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["train_sage", "sample_epoch", "serve_open", "dist_sage"]
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure once, then build incrementally; log goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def run_env():
    env = dict(os.environ)
    threads = str(os.cpu_count() or 1)
    env["GNNBENCH_NUM_THREADS"] = threads
    env["OMP_NUM_THREADS"] = threads
    # Idle OpenMP threads sleep instead of spinning, so they do not
    # compete with the core::parallel pool for the same cores.
    env["OMP_WAIT_POLICY"] = "PASSIVE"
    env["GNNBENCH_VALIDATE"] = "0"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs: checks the outputs only")
    args = ap.parse_args()

    try:
        binary = build(build_dir())
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    names = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        cmd = [binary, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
        if args.tiny:
            cmd.append("--tiny")
        try:
            proc = subprocess.run(cmd, env=run_env(), cwd=ROOT,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {name} exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
        if proc.returncode != 0:
            status = proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
