#!/usr/bin/env python3
"""Railgun benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and through it the railgun library) into
.bench_build/perfbench, runs the benchmark's self-test, then runs
railgun_perf for one workload, pinned to one CPU, each time with a fresh
data directory under .bench_data/ that is removed afterwards. Traced runs write their
Perfetto-loadable traces into .bench_out/. Progress goes to stderr; the
last line of stdout is the result: one JSON object with the keys
correct, attempted, failed and metrics.

perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("fraud_open_inproc", "expiry_batch_inproc")
# An end-to-end run is this many repetitions, each a fresh railgun_perf
# process with its own set-up measuring --seconds / REPETITIONS; every
# metric is the median over them, so a burst of noise from outside (CPU
# steal on a shared host) spoils one repetition, not the run. A traced
# run is one railgun_perf process whose untraced and traced phases each
# last as long as one repetition.
REPETITIONS = 5
# A run (set-ups included, build excluded) is killed after this long.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    """Builds railgun_perf and the self-test; returns the build directory."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no railgun sources beside perfbench/")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "railgun_perf",
                  "perfbench_selftest", "-j", jobs])
    steps.append([os.path.join(build_dir, "perfbench_selftest")])
    for step in steps:
        # Keep stdout for the result line alone.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail(f"step failed: {' '.join(step)}")
    return build_dir


def pick_cpu():
    """The CPU every process of a run is pinned to: the highest one this
    process may use (the first CPU of a VM tends to take its device
    interrupts)."""
    return max(os.sched_getaffinity(0))


def pinned(cpu):
    """A preexec_fn that pins the child (and every thread it starts)."""
    return lambda: os.sched_setaffinity(0, {cpu})


def run_once(root, build_dir, args, seconds, deadline, cpu):
    """Runs railgun_perf once; returns the parsed result object."""
    data_dir = os.path.join(root, ".bench_data", f"run-{os.getpid()}")
    out_dir = os.path.join(root, ".bench_out")
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RAILGUN_TRACE")}
    env["RAILGUN_LOG_LEVEL"] = "warn"
    command = [os.path.join(build_dir, "railgun_perf"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--data-dir", data_dir, "--out-dir", out_dir]
    # railgun_perf dies with its parent (PR_SET_PDEATHSIG), so killing
    # this process stops it too.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            cwd=root, text=True, preexec_fn=pinned(cpu))
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(data_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(data_dir))
        except OSError:
            pass  # Another run's data directory is still there.
    if proc.returncode != 0:
        fail(f"railgun_perf exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail("railgun_perf printed no result")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail(f"malformed result: {lines[-1]}")
    return result


def median_of(results):
    """Combines repetitions: counts add up, each metric is the median."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    # SIGTERM runs run_once's cleanup like any other exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = build(root)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    cpu = pick_cpu()
    seconds = args.seconds / REPETITIONS
    if args.trace:
        result = run_once(root, build_dir, args, seconds, deadline, cpu)
    else:
        result = median_of([
            run_once(root, build_dir, args, seconds, deadline, cpu)
            for _ in range(REPETITIONS)])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
