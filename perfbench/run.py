#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve|train|tune|all \\
        --seed N --seconds S --trace 0|1

Builds `perfbench/` (its own Cargo package, release profile, offline)
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs one
workload in its own process. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`. With
`--workload all` each workload runs in its own process in turn and the
last line merges their results, metric names prefixed by the workload.
Build output goes to standard error. The exit code is non-zero when the
build fails or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve", "train", "tune")


def build():
    """Builds the benchmark; returns the binary's path or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def run_one(binary, args, workload):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(HERE, "out")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 1

    if args.workload != "all":
        code, lines, _ = run_one(binary, args, args.workload)
        print("\n".join(lines), flush=True)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, lines, result = run_one(binary, args, w)
        print("\n".join(lines[:-1]), flush=True)
        worst = worst or code
        if result is None:
            merged["correct"] = False
            worst = worst or 1
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w}.{name}"] = m
    print(json.dumps(merged), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
