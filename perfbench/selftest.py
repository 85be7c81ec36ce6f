#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root. A one-second run of every workload in
perfbench/config.json, untraced and traced, must exit 0 and print every
metric BENCHMARK.json declares for that mode, with its declared unit. A run
with one output pixel flipped must exit nonzero and name the mismatching
cell. Takes a few minutes; the first call builds the benchmark binary.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        workloads = list(json.load(f)["workloads"])
    failures = []

    for workload in workloads:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            rc, lines = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if rc != 0 or not lines:
                failures.append(f"{label}: exit {rc}")
                continue
            result = json.loads(lines[-1])
            expected = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                failures.append(f"{label}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(expected) ^ set(got))}")
            elif not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: result not correct: {lines[-1]}")
            else:
                print(f"ok   {label}: {len(got)} metrics", flush=True)

    rc, lines = run("serve_128", 0, "--flip-pixel")
    named = [line for line in lines if line.startswith("mismatch ")]
    if rc == 0 or not named:
        failures.append(f"flipped pixel did not trip the gate (exit {rc})")
    else:
        print(f"ok   flipped pixel tripped the gate: {named[0]}", flush=True)

    for failure in failures:
        print(f"FAIL {failure}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
