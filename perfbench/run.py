#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from source, runs one workload and
prints the JSON result line last.

    python3 perfbench/run.py --workload frame_2k --seed 1 --seconds 10 --trace 0

Run it from the repository root. The library sources under src/ and the
benchmark binary under perfbench/src/ are built into .bench_build/ (created on the first
run). Workload settings (latency limits) and the frozen parallel floor are
read from perfbench/config.json; BENCHMARK.json names the workloads and the
metrics.
With --trace 0 the result carries every end-to-end metric, with --trace 1
every per-layer metric. The exit code is nonzero on a failed build, a failed
run, a missing metric or any output that is not bit-identical to the
reference ("mismatch <cell>" lines name the cells).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "ispb_perfbench")
# Longest a workload process may run before it is killed: a run must end
# within 180 s, and the first run of a checkout also builds.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def scratch_env():
    """Keeps compiler temporaries (the build's and the JIT's) in the checkout."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    # One malloc arena: otherwise each set-up's fresh worker threads may or
    # may not inherit the arena that still holds the previous set-up's
    # 16 MiB frames, and peak RSS flips between two values across runs.
    env["MALLOC_ARENA_MAX"] = "1"
    return env


def build():
    env = scratch_env()
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)


def binary_args(args, workload, floor_ms, work_dir):
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work-dir={work_dir}", f"--limit-ms={workload['limit_ms']}",
           f"--floor-ms={floor_ms}"]
    if args.flip_pixel:
        cmd.append("--flip-pixel")
    return cmd


def run_binary(cmd):
    """Runs the benchmark binary, echoing its informational lines; returns (rc, lines).

    The binary runs in its own process group (it spawns the JIT compiler),
    which is killed as a whole on timeout or when this script is stopped.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=scratch_env(), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 124, []
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.splitlines()
    for line in lines:
        if not line.startswith("metric "):
            print(line, flush=True)
    return proc.returncode, lines


def parse_result(lines):
    metrics, counts = {}, {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            metrics[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
        elif len(parts) == 2 and parts[0] in ("attempted", "failed", "correct"):
            counts[parts[0]] = int(parts[1])
    return metrics, counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--flip-pixel", action="store_true",
                        help="self-test: corrupt one checked output pixel")
    args = parser.parse_args()

    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = list(config["workloads"])
    if args.workload not in names:
        log(f"unknown workload '{args.workload}' (have {', '.join(names)})")
        return 2
    workload = config["workloads"][args.workload]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    work_dir = os.path.join(BUILD_ROOT, "work",
                            f"{args.workload}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(work_dir)
    try:
        rc, lines = run_binary(
            binary_args(args, workload, config["floor_ms"], work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics, counts = parse_result(lines)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    result_metrics = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            log(f"benchmark binary exited {rc} without metric '{m['name']}'")
            return rc or 2
        if got["unit"] != m["unit"]:
            log(f"metric '{m['name']}' has unit {got['unit']}, "
                f"declared {m['unit']}")
            return 2
        result_metrics[m["name"]] = got
    if "attempted" not in counts or counts["attempted"] < 1:
        log("benchmark binary reported no attempted operations")
        return rc or 2
    correct = rc == 0 and counts.get("correct") == 1
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts.get("failed", 0),
                      "metrics": result_metrics}), flush=True)
    return 0 if correct else 1


def stop(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, stop)
    sys.exit(main())
