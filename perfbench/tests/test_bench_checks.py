"""Every correctness check of the benchmark accepts a right value and flags a wrong one."""

import dataclasses

import numpy as np
import pytest
from click.testing import CliRunner

import monotangle.cli as cli
import workloads as wl
from monotangle.monogamy import sm_residual
from monotangle.qstate import DensityOperator
from monotangle.roof import RoofConfig
from monotangle.tangle import two_tangle
from monotangle.wclass import wclass_one_tangle, wclass_random, wclass_state


def test_concurrence_oracle_known_states():
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    assert wl.concurrence_oracle(bell) == pytest.approx(1.0, abs=1e-12)
    assert wl.concurrence_oracle(np.diag([1.0, 0, 0, 0]).astype(complex)) == pytest.approx(0.0, abs=1e-12)
    for p in (0.2, 0.6, 0.9):   # Werner state: C = max(0, (3p - 1) / 2)
        werner = p * bell + (1 - p) * np.eye(4) / 4
        assert wl.concurrence_oracle(werner) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_concurrence_oracle_agrees_with_library(rank):
    rho = wl.random_mixed_2q(wl.sub_seed(9, rank), rank)
    assert wl.concurrence_oracle(rho.matrix) ** 2 == pytest.approx(two_tangle(rho).value, abs=1e-8)


def test_pair_roof_check():
    assert wl.check_pair_roof(0.25, 0.25 + 5e-5) == []
    assert wl.check_pair_roof(0.25 + 2e-4, 0.25)
    assert wl.check_pair_roof(float("nan"), 0.25)


@pytest.fixture(scope="module")
def wclass_case():
    params = wclass_random(4, 11)
    report = sm_residual(wclass_state(params), 1, RoofConfig())
    return report, wclass_one_tangle(params).value


def _with_term(report, m, value):
    terms = tuple(dataclasses.replace(t, value=value) if t.m == m else t
                  for t in report.terms)
    return dataclasses.replace(report, terms=terms)


def test_wclass_check_accepts_saturated_report(wclass_case):
    report, one_ref = wclass_case
    assert wl.check_wclass_sm(report, one_ref) == []


@pytest.mark.parametrize("wrong", [
    dict(sm_residual=2e-6),
    dict(saturated_sm=False),
    dict(one_tangle="shift"),
    dict(ckw_residual=1e-8),
    dict(m3_term=2e-6),
])
def test_wclass_check_flags_wrong_value(wclass_case, wrong):
    report, one_ref = wclass_case
    if "m3_term" in wrong:
        bad = _with_term(report, 3, wrong["m3_term"])
    elif wrong.get("one_tangle") == "shift":
        bad = dataclasses.replace(report, one_tangle=report.one_tangle + 1e-7)
    else:
        bad = dataclasses.replace(report, **wrong)
    assert wl.check_wclass_sm(bad, one_ref)


def test_haar_check(wclass_case):
    report, _ = wclass_case
    assert wl.check_haar_sm(report) == []
    assert wl.check_haar_sm(dataclasses.replace(report, sm_residual=1e-6))
    assert wl.check_haar_sm(dataclasses.replace(report, ckw_residual=-1e-6,
                                                sm_residual=-1e-6))
    assert wl.check_haar_sm(dataclasses.replace(report, sm_violation=True))
    assert wl.check_haar_sm(_with_term(report, 2, -1e-3))


@pytest.fixture(scope="module")
def cli_csv():
    seed, samples = 5, 3
    result = CliRunner().invoke(cli.main, [
        "batch", "--family", "haar", "--n", "3", "--samples", str(samples),
        "--seed", str(seed)])
    assert result.exit_code == 0
    return result.stdout, seed, samples


def test_cli_check_accepts_cli_output(cli_csv):
    text, seed, samples = cli_csv
    rows, bad, problems = wl.check_cli_csv(text, seed, samples)
    assert (len(rows), bad, problems) == (samples, set(), [])
    batch = wl.CliBatch(0)
    for index, row in enumerate(rows):
        assert wl.check_cli_recomputed(row, batch.trace_run((seed, index))) == []


def _edit(text, line, column, value):
    lines = [l.split(",") for l in text.splitlines()]
    lines[line][column] = value
    return "\n".join(",".join(l) for l in lines) + "\n"


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("ckw_residual", "ckw"),               # header
    lambda t: "\n".join(t.splitlines()[:-1]) + "\n",          # a row missing
    lambda t: _edit(t, 1, 2, "12345"),                        # wrong state seed
    lambda t: _edit(t, 2, 1, "0"),                            # rows out of order
    lambda t: _edit(t, 1, 4, "2.0"),                          # sm above ckw
    lambda t: _edit(_edit(t, 1, 3, "-0.5"), 1, 4, "-0.5"),    # negative ckw
    lambda t: _edit(t, 3, 3, "x"),                            # unparsable
])
def test_cli_check_flags_wrong_output(cli_csv, edit):
    text, seed, samples = cli_csv
    _, bad, problems = wl.check_cli_csv(edit(text), seed, samples)
    assert bad and problems


def test_cli_recompute_flags_a_changed_digit(cli_csv):
    text, seed, samples = cli_csv
    rows, _, _ = wl.check_cli_csv(text, seed, samples)
    report = wl.CliBatch(0).trace_run((seed, 0))
    row = list(rows[0])
    row[4] = repr(float(row[4]) + 1e-15)
    assert wl.check_cli_recomputed(row, report)


def test_cli_score_counts_bad_rows(cli_csv):
    text, seed, samples = cli_csv
    batch = wl.CliBatch(0)
    assert batch.score((seed, samples), text) == 0
    assert batch.score((seed, samples), _edit(text, 2, 4, "2.0")) == 1
    assert batch.score((seed, samples), "garbage\n") == samples


def test_density_inputs_are_valid_states():
    for rank in (1, 2, 3, 4):
        rho = wl.random_mixed_2q(wl.sub_seed(3, rank), rank)
        assert isinstance(rho, DensityOperator)
        assert np.linalg.matrix_rank(rho.matrix, tol=1e-10) == rank
