#!/usr/bin/env python3
"""Benchmark of monotangle: one workload, end to end or traced per layer.

Run from the repository root, for example

    python3 perfbench/run.py --workload haar_sm --seed 1 --seconds 20 --trace 0

Workloads: pair_roof, wclass_sm, haar_sm, cli_batch (see README.md).

``--trace 0`` starts the workload in three fresh interpreters: one that
only sets up, one that sets up and runs the timed closed loop, and one
more that only sets up.  It reports the end-to-end metrics.  ``--trace 1``
runs a fixed set of units once untraced and once with every layer
boundary wrapped, and reports the per-layer metrics and the tracing
overhead.

Standard output ends with a table, a JSON line {"record": ...} holding
the environment and the metrics that BENCHMARK.json does not list, and, as
the last line, {"correct", "attempted", "failed", "metrics"} with the
listed ones.  Every process started has BLAS and OpenMP pinned to one
thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# names only: workloads.py imports the package, which may be missing here
WORKLOADS = ("pair_roof", "wclass_sm", "haar_sm", "cli_batch")
# set-up samples per timed run (before it, its own, after it); setup_s is
# their median, so it spans the run rather than one moment of it
SETUPS = 3
# time allowed beyond --seconds for the set-ups, the unit that ends the loop
# and start-up; a worker still running at the deadline is killed
ALLOWANCE_S = 110.0
# the timed loop ends this long before the time the last set-up needs
MARGIN_S = 5.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    paths = [os.path.join(root, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(argv: list[str], env: dict, deadline: float):
    """Run worker.py; returns (seconds from start to READY, last-line record)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - t0), _kill_group, (proc.pid,))
    timer.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        _kill_group(proc.pid)   # the worker's own children, if any survive
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkerError(f"worker {' '.join(argv)} exited {code}")
    return ready, (json.loads(lines[-1]) if lines else None)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: str, seed: int, numpy_version: str) -> dict:
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": git_commit(root), "seed": seed,
            "blas_threads": 1}


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def stratified(values, cycle: int, q: float) -> float:
    """Mean over strata of each stratum's q-quantile.

    Units repeat their stratum every ``cycle`` units (rank on pair_roof,
    n on wclass_sm).  A quantile over all items of a mixed workload would
    fall between two strata and jump from run to run.
    """
    return statistics.mean(percentile(values[k::cycle], q) for k in range(cycle))


def end_to_end(setups: list[float], rec: dict) -> dict:
    """Every end-to-end metric, (value, unit) by name."""
    ms, cycle = rec["item_ms"], rec["cycle"]
    out = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (rec["items"] / rec["busy_s"], "1/s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        "item_ms_p10": (stratified(ms, cycle, 0.1), "ms"),
        "item_ms_p50": (stratified(ms, cycle, 0.5), "ms"),
        "fail_frac": (rec["failed"] / rec["items"], "ratio"),
    }
    if rec["items"] == rec["units"] and rec["units"] >= 100:
        out["item_ms_p90"] = (percentile(ms, 0.9), "ms")
    units = {"nonconverged_frac": "ratio", "oracle_err_max": "1",
             "roof_bound_mean": "1"}
    for key, value in rec["quality"].items():
        if value is not None:
            out[key] = (value, units[key])
    return out


def listed(root: str, kind: str) -> set[str]:
    """Names of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"] for metric in json.load(fh)[kind]}


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "monotangle", "__init__.py")):
        print("error: src/monotangle not found; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + args.seconds + ALLOWANCE_S
    env = child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            out_dir = os.path.join(root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans_{args.workload}_{args.seed}.npz")
            _, rec = run_worker(common + ["--phase", "trace", "--spans", spans],
                                env, deadline)
            measured = rec["metrics"]
            info = {"absent": rec["absent"], "spans": rec["spans"],
                    "span_file": os.path.relpath(spans, root),
                    "untraced_items_per_s": rec["untraced_items_per_s"],
                    "traced_items_per_s": rec["traced_items_per_s"]}
        else:
            first, _ = run_worker(common + ["--phase", "setup"], env, deadline)
            # a slowed-down loop ends early, leaving the last set-up its time
            stop_at = (time.time() + deadline - time.perf_counter()
                       - 2 * first - MARGIN_S)
            ready, rec = run_worker(
                common + ["--phase", "run", "--seconds", str(args.seconds),
                          "--stop-at", repr(stop_at)], env, deadline)
            last, _ = run_worker(common + ["--phase", "setup"], env, deadline)
            setups = [first, ready, last]
            measured = end_to_end(setups, rec)
            info = {"units": rec["units"], "busy_s": rec["busy_s"],
                    "setup_samples_s": setups}
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names = listed(root, "per_layer" if args.trace else "end_to_end")
    metrics = {k: v for k, v in measured.items() if k in names}
    reported = {k: v for k, v in measured.items() if k not in names}
    for problem in rec["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}", metrics)
    print_table("  not listed in BENCHMARK.json:", reported)
    record = {"workload": args.workload, "trace": args.trace,
              "env": environment(root, args.seed, rec["numpy"]),
              "reported": reported, **info}
    print(json.dumps({"record": record}))
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["items"],
        "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
