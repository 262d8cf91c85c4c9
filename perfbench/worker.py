"""One fresh-interpreter run of a workload, started by ``run.py``.

Phases:
  setup  import, generate the first inputs, run one warm-up unit, print READY
  run    setup, then the timed closed loop; prints the end-to-end record
  trace  setup, then one untraced and one traced pass over a fixed set of
         units; prints the per-layer record

The last line of stdout is a JSON record for ``run.py``.  The ``run``
phase never imports the tracer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _check_source(root: str) -> None:
    import monotangle

    expected = os.path.join(root, "src", "monotangle")
    if os.path.dirname(os.path.abspath(monotangle.__file__)) != expected:
        raise SystemExit(f"monotangle imported from {monotangle.__file__}, "
                         f"not from {expected}")


def _unit(wl, inp):
    """Run and check one unit; returns (seconds, items, failed items)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception:
        elapsed = time.perf_counter() - t0
        wl.problems.append(traceback.format_exc(limit=3))
        return elapsed, wl.items(inp), wl.items(inp)
    elapsed = time.perf_counter() - t0
    return elapsed, wl.items(inp), wl.score(inp, out)


def timed_loop(wl, seconds: float, stop_at: float) -> dict:
    """Closed loop, one client: next unit after the last one finished.

    Stops at the first cycle boundary after ``seconds`` of wall time, so
    every stratum of the workload is equally represented.  It stops
    earlier, before a unit that at twice the longest time so far would end
    after ``stop_at`` (a ``time.time()`` value), so that a run that has
    slowed down still reports what it measured.
    """
    times, items, failed = [], [], []
    begin = time.perf_counter()
    index = 0
    while True:
        inp = wl.make(index)
        dt, n, bad = _unit(wl, inp)
        times.append(dt)
        items.append(n)
        failed.append(bad)
        index += 1
        if index % wl.cycle == 0 and time.perf_counter() - begin >= seconds:
            break
        if time.time() + 2 * max(times) > stop_at:
            break
    return {"units": len(times), "items": sum(items), "failed": sum(failed),
            "busy_s": sum(times), "cycle": wl.cycle,
            "item_ms": [1e3 * t / n for t, n in zip(times, items)]}


def traced_passes(wl, out_path: str) -> dict:
    """Untraced then traced pass over the same fixed inputs."""
    import tracer as tracing
    from monotangle import monogamy, qstate, roof, tangle

    inputs = wl.trace_inputs()
    modules = {"monogamy": monogamy, "qstate": qstate, "roof": roof,
               "tangle": tangle}
    tr = tracing.Tracer()
    failed = 0
    row_s, traced_s = [], 0.0

    def one(inp) -> float:
        nonlocal failed
        t0 = time.perf_counter()
        try:
            out = wl.trace_run(inp)
        except Exception:
            failed += 1
            wl.problems.append(traceback.format_exc(limit=3))
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        failed += wl.trace_score(inp, out)
        return elapsed

    # each input untraced, then traced, so that drift in machine speed
    # does not show up as tracing overhead
    for inp in inputs:
        row_s.append(one(inp))
        tr.install(modules)
        try:
            traced_s += one(inp)
        finally:
            tr.uninstall()
    plain_s = sum(row_s)
    tr.save(out_path)

    metrics = tracing.layer_metrics(tr, len(inputs))
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - plain_s / traced_s), "%")
    metrics["cli.startup_s"] = (cli_startup_s(), "s")
    metrics.update(cli_layer(wl, row_s))
    return {"items": 2 * len(inputs), "failed": failed, "metrics": metrics,
            "absent": tr.absent + sorted(tr.untagged), "spans": len(tr.names),
            "untraced_items_per_s": len(inputs) / plain_s,
            "traced_items_per_s": len(inputs) / traced_s}


def cli_startup_s(repeats: int = 3) -> float:
    """Median wall time of ``monotangle --version`` in a fresh interpreter."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "monotangle.cli", "--version"],
                       capture_output=True, check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def cli_layer(wl, row_s: list[float]) -> dict:
    """Pool metrics of the CLI, against the same rows timed in-process.

    ``--timing`` rounds each row to whole milliseconds, which reads 0 for
    n = 3 rows, so the row times come from the in-process pass instead.
    """
    if wl.name != "cli_batch":
        return {"cli.row_ms_p50": (0.0, "ms"), "cli.overhead_s": (0.0, "s"),
                "cli.pool_efficiency": (0.0, "ratio")}
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        wl.run(wl.make(0))
        walls.append(time.perf_counter() - t0)
    wall = statistics.median(walls)
    work = sum(row_s)
    jobs = workloads.CLI_JOBS
    return {"cli.row_ms_p50": (1e3 * statistics.median(row_s), "ms"),
            "cli.overhead_s": (wall - work / jobs, "s"),
            "cli.pool_efficiency": (work / (jobs * wall), "ratio")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--phase", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--stop-at", type=float, default=math.inf,
                    help="time.time() by which the timed loop must end")
    ap.add_argument("--spans", default=None, help="where the traced run saves spans")
    args = ap.parse_args()
    _check_source(os.getcwd())
    warm = workloads.make_workload(args.workload, args.seed)
    _, _, bad = _unit(warm, warm.make(-1))
    if bad:
        print("\n".join(warm.problems[-3:]), file=sys.stderr)
        return 1
    wl = workloads.make_workload(args.workload, args.seed)
    print("READY", flush=True)
    if args.phase == "setup":
        return 0

    if args.phase == "run":
        record = timed_loop(wl, args.seconds, args.stop_at)
        who = (resource.RUSAGE_CHILDREN if wl.name == "cli_batch"
               else resource.RUSAGE_SELF)
        record["peak_rss_mb"] = _peak_rss_mb(who)
    else:
        record = traced_passes(wl, args.spans)
    record["quality"] = wl.quality()
    record["problems"] = wl.problems[:20]
    record["numpy"] = workloads.np.__version__
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
