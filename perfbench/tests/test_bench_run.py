"""Minimal-size runs of the whole benchmark command, one subprocess each."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from conftest import ROOT

from run import SETUPS, WORKLOADS, child_env

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    record = json.loads(lines[-2])["record"]
    assert set(record["env"]) >= {"nproc", "cpu", "python", "numpy", "commit", "seed"}
    return result, record


def units_of(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_emits_every_end_to_end_metric(workload):
    result, record = result_of(bench("--workload", workload, "--seed", "3",
                                     "--seconds", "1", "--trace", "0"))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units_of("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(record["setup_samples_s"]) == SETUPS
    assert record["reported"]["fail_frac"] == [0.0, "ratio"]
    if workload != "cli_batch":
        assert "nonconverged_frac" in record["reported"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    runs = []
    for _ in range(2):
        result, record = result_of(bench(
            "--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "1"))
        assert record["absent"] == []
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == units_of("per_layer")
        # the layer metrics that BENCHMARK.json does not list are in the record
        assert {"roof.restarts_used.mean", "tangle.leaf.calls.m5"} <= record["reported"].keys()
        runs.append({**{name: m["value"] for name, m in result["metrics"].items()},
                     **{name: value for name, (value, _) in record["reported"].items()}})
    units = {**got, **{name: unit for name, (_, unit) in record["reported"].items()}}
    counts = [name for name, unit in units.items()
              if unit == "count" or name == "roof.pair_step.useful_frac"]
    assert [runs[0][n] for n in counts] == [runs[1][n] for n in counts]


def test_timed_loop_ends_early_to_meet_its_deadline():
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
           "--workload", "cli_batch", "--seed", "2", "--phase", "run",
           "--seconds", "60", "--stop-at", repr(time.time() + 5)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(ROOT), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert record["units"] >= 1 and record["failed"] == 0
    assert time.perf_counter() - t0 < 30


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "wclass_sm", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
