"""Workloads of the monotangle benchmark: inputs, one unit of work, checks.

Every workload turns the run seed into a deterministic stream of inputs,
runs one *unit* of work through the library (or, for ``cli_batch``, one
CLI invocation) and checks the outputs against references the library does
not compute itself.  A unit yields one item, except a CLI invocation,
which yields one item per CSV row.  ``cycle`` consecutive units form one
balanced pass over the workload's strata (the four ranks on
``pair_roof``, the four qubit counts on ``wclass_sm``).

The check functions are pure: they take values and return a list of
problems, empty when the output is correct, so the self-tests can feed
them deliberately wrong values.
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys

import numpy as np

from monotangle import monogamy, qstate, roof, tangle, wclass
from monotangle.roof import RoofConfig

# the C5 acceptance budget
PAIR_CONFIG = RoofConfig(restarts=4, padding=2, max_sweeps=40, tol=1e-8)
PAIR_TOL = 1e-4
WCLASS_NS = (3, 4, 5, 6)
WCLASS_CONFIG = RoofConfig()
WCLASS_TOL_ROOF = 1e-6
WCLASS_TOL_CLOSED = 1e-9
# two restarts of one sweep per descent: about 1.5 s a state on a 2-core
# Xeon, where the default budget (32 restarts, 500 sweeps) costs minutes
HAAR_CONFIG = RoofConfig(restarts=2, max_sweeps=1)
HAAR_N = 4
RESIDUAL_TOL = 1e-9
CLI_N = 3
CLI_SAMPLES = 2000
CLI_JOBS = 2
CLI_RECOMPUTED = 4
CLI_CONFIG_DEFAULTS = dict(restarts=32, padding=2)
CLI_HEADER = ["n", "sample", "seed", "ckw_residual", "sm_residual",
              "max_m3plus_term", "runtime_ms"]
CLI_TIMEOUT_S = 120


def sub_seed(*key: int) -> int:
    """A 63-bit seed derived from the run seed and a stream key."""
    state = np.random.SeedSequence(list(key)).generate_state(1, dtype=np.uint64)
    return int(state[0] >> np.uint64(1))


# The warm-up unit's input is the same for every run seed, so that setup_s
# measures the same work whatever the seed.
WARMUP_SEED = sub_seed(0)


# ---------------------------------------------------------------------------
# independent references


def concurrence_oracle(mat: np.ndarray) -> float:
    """Wootters concurrence from the Hermitian form sqrt(rho) rho~ sqrt(rho).

    The library diagonalises the non-Hermitian rho rho~; this takes the
    square roots of the eigenvalues of R = sqrt(rho) rho~ sqrt(rho), which
    are the same lambda_i by a different route.
    """
    evals, evecs = np.linalg.eigh(mat)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    yy = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    flipped = yy @ mat.conj() @ yy
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ flipped @ root), 0.0, None))
    lam = np.sort(lam)[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def random_mixed_2q(seed: int, rank: int) -> qstate.DensityOperator:
    """Two-qubit mixed state of the given rank from a Ginibre factor."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return qstate.DensityOperator((1, 2), mat)


def cli_sample_seed(global_seed: int, n: int, index: int) -> int:
    """Per-row state seed of ``monotangle batch`` (documented derivation)."""
    ss = np.random.SeedSequence(entropy=global_seed, spawn_key=(n, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is correct


def check_pair_roof(value: float, reference: float) -> list[str]:
    if not abs(value - reference) <= PAIR_TOL:
        return [f"roof {value!r} differs from C^2 {reference!r} by more than {PAIR_TOL}"]
    return []


def check_wclass_sm(report, one_tangle_ref: float) -> list[str]:
    problems = []
    if not abs(report.sm_residual) <= WCLASS_TOL_ROOF:
        problems.append(f"|sm_residual| = {abs(report.sm_residual)!r} > {WCLASS_TOL_ROOF}")
    for term in report.terms:
        if term.m >= 3 and not term.value <= WCLASS_TOL_ROOF:
            problems.append(f"m={term.m} term {term.partners} = {term.value!r} > {WCLASS_TOL_ROOF}")
    if report.saturated_sm is not True:
        problems.append("saturated_sm is not true")
    if not abs(report.one_tangle - one_tangle_ref) <= WCLASS_TOL_CLOSED:
        problems.append(f"one-tangle {report.one_tangle!r} != closed form {one_tangle_ref!r}")
    if not abs(report.ckw_residual) <= WCLASS_TOL_CLOSED:
        problems.append(f"ckw_residual {report.ckw_residual!r} is not 0")
    return problems


def check_residuals(ckw: float, sm: float) -> list[str]:
    problems = []
    if not sm <= ckw + RESIDUAL_TOL:
        problems.append(f"sm_residual {sm!r} exceeds ckw_residual {ckw!r}")
    if not ckw >= -RESIDUAL_TOL:
        problems.append(f"ckw_residual {ckw!r} is negative")
    return problems


def check_haar_sm(report) -> list[str]:
    problems = check_residuals(report.ckw_residual, report.sm_residual)
    for term in report.terms:
        if not term.value >= 0.0:
            problems.append(f"m={term.m} term {term.partners} = {term.value!r} < 0")
    if report.sm_violation is not False:
        problems.append("sm_violation is set")
    return problems


def check_cli_csv(text: str, global_seed: int, samples: int):
    """Check a ``batch --family haar --n 3`` CSV.

    Returns (rows, indices of bad rows, problems); malformed output leaves
    ``rows`` empty and marks every sample bad.
    """
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != CLI_HEADER:
        return [], set(range(samples)), [f"bad header {lines[0] if lines else None!r}"]
    rows = lines[1:]
    if len(rows) != samples:
        return [], set(range(samples)), [f"{len(rows)} rows, expected {samples}"]
    bad = set()
    problems = []
    for index, row in enumerate(rows):
        try:
            row_problems = []
            if len(row) != len(CLI_HEADER):
                row_problems.append(f"{len(row)} columns")
            elif (int(row[0]) != CLI_N or int(row[1]) != index
                  or int(row[2]) != cli_sample_seed(global_seed, CLI_N, index)):
                row_problems.append(f"row key {row[:3]} out of order")
            else:
                row_problems += check_residuals(float(row[3]), float(row[4]))
        except ValueError as exc:
            row_problems = [f"unparsable row: {exc}"]
        if row_problems:
            bad.add(index)
            problems += [f"row {index}: {p}" for p in row_problems]
    return rows, bad, problems


def check_cli_recomputed(row: list[str], report) -> list[str]:
    """A CSV row must match the same row recomputed in-process, by repr."""
    expected = [repr(report.ckw_residual), repr(report.sm_residual),
                repr(monogamy.max_m3plus_term(report))]
    if row[3:6] != expected:
        return [f"row {row[1]}: CLI {row[3:6]} != in-process {expected}"]
    return []


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: quality accumulators shared by the library workloads."""

    cycle = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.roof_terms = 0
        self.nonconverged = 0
        self.oracle_err = 0.0
        self.problems: list[str] = []

    def items(self, inp) -> int:
        return 1

    def trace_inputs(self) -> list:
        """The fixed units of the traced run."""
        return [self.make(i) for i in range(self.trace_units)]

    def trace_run(self, inp):
        return self.run(inp)

    def trace_score(self, inp, out) -> int:
        return self.score(inp, out)

    def _count_roofs(self, report) -> None:
        for term in report.terms:
            if term.method == "roof":
                self.roof_terms += 1
                self.nonconverged += not term.converged

    def quality(self) -> dict:
        frac = self.nonconverged / self.roof_terms if self.roof_terms else None
        return {"nonconverged_frac": frac}


class PairRoof(Workload):
    """One C5-budget roof of a two-qubit mixed state, ranks 1-4 in turn."""

    name = "pair_roof"
    cycle = 4
    trace_units = 8

    def make(self, index: int):
        if index < 0:  # warm-up input, outside the timed stream
            return random_mixed_2q(WARMUP_SEED, 2)
        return random_mixed_2q(sub_seed(self.seed, 1, index), 1 + index % 4)

    def run(self, rho):
        return roof.m_tangle_mixed(rho, 1, (2,), tangle.pure_functional_2q,
                                   PAIR_CONFIG)

    def score(self, rho, result) -> int:
        reference = concurrence_oracle(rho.matrix) ** 2
        self.oracle_err = max(self.oracle_err, abs(result.value - reference))
        self.roof_terms += 1
        self.nonconverged += not result.converged
        problems = check_pair_roof(result.value, reference)
        self.problems += problems
        return int(bool(problems))

    def quality(self) -> dict:
        return {**super().quality(), "oracle_err_max": self.oracle_err}


class WclassSm(Workload):
    """Full SM evaluation of random W-class states, n = 3, 4, 5, 6 in turn."""

    name = "wclass_sm"
    cycle = len(WCLASS_NS)
    trace_units = 40

    def make(self, index: int):
        if index < 0:
            params = wclass.wclass_random(6, WARMUP_SEED)
        else:
            params = wclass.wclass_random(WCLASS_NS[index % self.cycle],
                                          sub_seed(self.seed, 1, index))
        return params, wclass.wclass_state(params)

    def run(self, inp):
        return monogamy.sm_residual(inp[1], 1, WCLASS_CONFIG)

    def score(self, inp, report) -> int:
        params = inp[0]
        one_ref = wclass.wclass_one_tangle(params).value
        errors = [abs(report.one_tangle - one_ref), abs(report.ckw_residual),
                  abs(report.sm_residual)]
        for term in report.terms:
            if term.m == 2:
                ref = wclass.wclass_two_tangle(params, term.partners[0]).value
                errors.append(abs(term.value - ref))
            else:
                errors.append(abs(term.value))
        self.oracle_err = max(self.oracle_err, *errors)
        self._count_roofs(report)
        problems = check_wclass_sm(report, one_ref)
        self.problems += problems
        return int(bool(problems))

    def quality(self) -> dict:
        return {**super().quality(), "oracle_err_max": self.oracle_err}


class HaarSm(Workload):
    """SM evaluation of a Haar-random four-qubit state, hub 1."""

    name = "haar_sm"
    trace_units = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.m3_values: list[float] = []

    def make(self, index: int):
        seed = WARMUP_SEED if index < 0 else sub_seed(self.seed, 1, index)
        return qstate.haar_random_state(HAAR_N, seed)

    def run(self, state):
        return monogamy.sm_residual(state, 1, HAAR_CONFIG)

    def score(self, state, report) -> int:
        self.m3_values += [t.value for t in report.terms if t.m == 3]
        self._count_roofs(report)
        problems = check_haar_sm(report)
        self.problems += problems
        return int(bool(problems))

    def quality(self) -> dict:
        mean = sum(self.m3_values) / len(self.m3_values) if self.m3_values else None
        return {**super().quality(), "roof_bound_mean": mean}


def cli_command(global_seed: int, samples: int) -> list[str]:
    return [sys.executable, "-m", "monotangle.cli", "batch", "--family", "haar",
            "--n", str(CLI_N), "--samples", str(samples), "--seed", str(global_seed),
            "--jobs", str(CLI_JOBS)]


def run_cli(cmd: list[str]) -> str:
    """Run a CLI command from the checkout root; its stdout, or raise."""
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S, env=os.environ)
    if done.returncode != 0:
        raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()[-500:]}")
    return done.stdout


class CliBatch(Workload):
    """``monotangle batch --family haar --n 3 --jobs 2`` as a subprocess.

    A unit is one invocation of CLI_SAMPLES rows; an item is one row.  The
    traced run also evaluates one invocation's rows in-process.
    """

    name = "cli_batch"

    def make(self, index: int):
        if index < 0:
            return WARMUP_SEED % 2**31, 1
        return sub_seed(self.seed, 1, index) % 2**31, CLI_SAMPLES

    def items(self, inp) -> int:
        return inp[1]

    def run(self, inp):
        return run_cli(cli_command(*inp))

    def score(self, inp, text) -> int:
        global_seed, samples = inp
        rows, bad, problems = check_cli_csv(text, global_seed, samples)
        if rows:
            picks = np.random.default_rng(global_seed).choice(
                samples, size=min(CLI_RECOMPUTED, samples), replace=False)
            for index in (int(i) for i in picks):
                row_problems = check_cli_recomputed(
                    rows[index], self.trace_run((global_seed, index)))
                if row_problems:
                    bad.add(index)
                    problems += row_problems
        self.problems += problems
        return len(bad)

    def trace_inputs(self) -> list:
        global_seed = self.make(0)[0]
        return [(global_seed, i) for i in range(CLI_SAMPLES)]

    def trace_run(self, inp):
        """One CSV row computed in-process, as the CLI's worker computes it."""
        global_seed, index = inp
        state = qstate.haar_random_state(
            CLI_N, cli_sample_seed(global_seed, CLI_N, index))
        return monogamy.sm_residual(
            state, 1, RoofConfig(seed=global_seed, **CLI_CONFIG_DEFAULTS))

    def trace_score(self, inp, report) -> int:
        problems = check_residuals(report.ckw_residual, report.sm_residual)
        self.problems += problems
        return int(bool(problems))

    def quality(self) -> dict:
        return {}


WORKLOADS = {cls.name: cls for cls in (PairRoof, WclassSm, HaarSm, CliBatch)}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)

