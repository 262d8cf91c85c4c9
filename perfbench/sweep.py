#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

From the repository root:

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/sweep.py --workloads haar_sm --seeds 1 2 3 --trace 1

For every end-to-end metric it prints the median, the quartiles and the
spread (interquartile distance over the median), and flags a spread that
is not below a third of the metric's bound in BENCHMARK.json, except for
``setup_s`` (see SPREAD_EXEMPT).  ``--out`` writes the medians and the raw
values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

# setup_s is a median of three set-ups of a few seconds each, and the speed
# of a shared host swings by up to 20 % from one minute to the next, so its
# spread over seeds is that of the host.  It is compared by its median only,
# against its bound; its spread is printed but not required below bound/3.
SPREAD_EXEMPT = {"setup_s"}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units = {}
        env = None
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(lines[-1])
            env = json.loads(lines[-2])["record"]["env"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed\n{done.stderr}")
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        table = {}
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else None
            bound = bounds.get(name)
            flag = ""
            if name in SPREAD_EXEMPT:
                flag = "(spread not gated)"
            elif bound is not None and spread is not None:
                ok = spread < bound / 3
                steady = steady and ok
                flag = "ok" if ok else f"NOT below bound/3 = {bound / 3:.3f}"
            spread_txt = f"{spread:8.4f}" if spread is not None else "     n/a"
            print(f"  {name:32s} median {med:12.6g} {units[name]:6s} "
                  f"spread {spread_txt} {flag}")
            table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "unit": units[name], "values": vals}
        summary["workloads"][workload] = table
        summary["env"] = env
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
