#!/usr/bin/env python3
"""Short-mode self-test of the benchmark.

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks that each run exits 0, passes its correctness checks, fails no
request, and prints every metric BENCHMARK.json names for that mode exactly
once, with its unit, as a finite number -- both in the human-readable lines
and in the JSON summary on the last line. It also checks that an unknown
workload is refused with a non-zero exit.

Run from the repository root:

    python3 perfbench/selftest.py            # every workload, 2 s each
    python3 perfbench/selftest.py --seconds 3 --workload serve_hot_read
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(command, args, timeout):
    return subprocess.run(
        command + args, cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )


def check_run(command, workload, trace, seconds, expected):
    args = ["--workload", workload, "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    proc = run(command, args, timeout=900)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        print(proc.stdout[-4000:], proc.stderr[-4000:])
        fail(f"{label}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines[0].startswith("# perfbench") or "nproc=" not in lines[0] or "rustc=" not in lines[0]:
        fail(f"{label}: first line is not the host tag: {lines[0]!r}")
    summary = json.loads(lines[-1])
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: summary keys {sorted(summary)}")
    if summary["correct"] is not True or summary["failed"] != 0 or summary["attempted"] < 1:
        fail(f"{label}: correct={summary['correct']} attempted={summary['attempted']} failed={summary['failed']}")
    metrics = summary["metrics"]
    if set(metrics) != set(expected):
        fail(f"{label}: JSON metrics differ: missing {set(expected) - set(metrics)}, extra {set(metrics) - set(expected)}")
    kind = "layer" if trace else "metric"
    for name, unit in expected.items():
        entry = metrics[name]
        if entry["unit"] != unit or not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            fail(f"{label}: {name} = {entry}")
        printed = [l for l in lines if re.match(rf"{kind} {re.escape(name)} = \S+ {re.escape(unit)}(\s|$)", l)]
        if len(printed) != 1:
            fail(f"{label}: {name} printed {len(printed)} times with unit {unit}")
        if not math.isfinite(float(printed[0].split(" = ")[1].split()[0])):
            fail(f"{label}: {name} printed as a non-finite number")
    print(f"ok   {label}: {len(expected)} metrics, attempted {summary['attempted']}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--workload", action="append")
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]

    bad = run(command, ["--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"], 900)
    if bad.returncode == 0:
        fail("an unknown workload was accepted")
    print("ok   unknown workload refused")
    for workload in workloads:
        check_run(command, workload, 0, opts.seconds, end_to_end)
        check_run(command, workload, 1, opts.seconds, per_layer)
    print("selftest passed")


if __name__ == "__main__":
    main()
