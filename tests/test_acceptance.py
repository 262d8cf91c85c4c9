"""Acceptance suite: one test per criterion, tolerances pinned inline.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every computation here is seed-deterministic; the determinism
criterion re-executes two of the workloads and compares serialized bytes.
"""

import json
import time

import numpy as np
import pytest

from monotangle.monogamy import max_m3plus_term, sm_residual, verify_saturation
from monotangle.qstate import haar_random_state, reduce_pure_state
from monotangle.roof import RoofConfig, _random_unitary, hjw_mix
from monotangle.tangle import (
    concurrence_2q,
    n_tangle_pure,
    one_tangle,
    pure_functional_2q,
    two_tangle,
)
from monotangle.monogamy import ckw_residual
from monotangle.roof import m_tangle_mixed
from monotangle.wclass import (
    wclass_random,
    wclass_reduction,
    wclass_state,
    wclass_two_tangle,
)
from .conftest import members, random_mixed_2q

# Pinned budgets.  Criterion 1 runs at the full default roof budget; the
# two-qubit oracle sweep uses a reduced, validated budget to fit its
# runtime bound.
C1_CFG = RoofConfig(seed=20260811)
C5_CFG = RoofConfig(seed=414243, restarts=4, padding=2, max_sweeps=40,
                    tol=1e-8)

C1_NS = (3, 4, 5, 6)
C1_SAMPLES = 100
C5_SAMPLES = 200


def _c1_param_seed(n: int, i: int) -> int:
    return 1_000_000 + 1000 * n + i


def run_criterion1():
    reports = {}
    for n in C1_NS:
        for i in range(C1_SAMPLES):
            params = wclass_random(n, _c1_param_seed(n, i))
            reports[(n, i)] = verify_saturation(params, C1_CFG)
    return reports


def serialize_reports(reports) -> bytes:
    payload = [
        {"n": n, "i": i, "report": reports[(n, i)].to_json_dict()}
        for (n, i) in sorted(reports)
    ]
    return json.dumps(payload, sort_keys=True).encode()


def run_criterion5():
    records = []
    for s in range(C5_SAMPLES):
        rho = random_mixed_2q(5000 + s)
        result = m_tangle_mixed(rho, 1, (2,), pure_functional_2q, C5_CFG)
        records.append({
            "sample": s,
            "roof": result.value,
            "oracle": concurrence_2q(rho) ** 2,
            "converged": result.converged,
            "restarts_used": result.restarts_used,
        })
    return records


def serialize_records(records) -> bytes:
    return json.dumps(records, sort_keys=True).encode()


@pytest.fixture(scope="module")
def c1():
    start = time.perf_counter()
    reports = run_criterion1()
    seconds = time.perf_counter() - start
    return {"reports": reports, "bytes": serialize_reports(reports),
            "seconds": seconds}


@pytest.fixture(scope="module")
def c5():
    start = time.perf_counter()
    records = run_criterion5()
    seconds = time.perf_counter() - start
    return {"records": records, "bytes": serialize_records(records),
            "seconds": seconds}


@pytest.fixture(scope="module")
def c6_states():
    return [haar_random_state(3, 60_000 + s) for s in range(500)]


def test_c1_strong_monogamy_saturation(c1):
    """Criterion 1: random single-excitation-class states saturate the
    strong-monogamy inequality at every n in {3..6}."""
    worst_residual = 0.0
    worst_term = 0.0
    for (n, i), report in c1["reports"].items():
        assert abs(report.sm_residual) <= 1e-6, (n, i, report.sm_residual)
        assert max_m3plus_term(report) <= 1e-6, (n, i)
        assert report.saturated_sm, (n, i)
        worst_residual = max(worst_residual, abs(report.sm_residual))
        worst_term = max(worst_term, max_m3plus_term(report))
    assert c1["seconds"] < 600.0
    print(f"\n[C1] PASS: {len(c1['reports'])} states, "
          f"max |sm_residual| = {worst_residual:.2e} (tol 1e-6), "
          f"max m>=3 term = {worst_term:.2e} (tol 1e-6), "
          f"{c1['seconds']:.1f} s")


def test_c2_one_tangle_equals_two_tangle_sum():
    """Criterion 2: one-tangle equals the sum of pair two-tangles, and the
    closed forms match concurrence on the numerically reduced states."""
    worst_sum = 0.0
    worst_pair = 0.0
    for n in (3, 4, 5, 6):
        for i in range(500):
            params = wclass_random(n, 20_000 + 1000 * n + i)
            state = wclass_state(params)
            one = one_tangle(state, 1).value
            closed_sum = sum(
                wclass_two_tangle(params, j).value for j in range(2, n + 1)
            )
            worst_sum = max(worst_sum, abs(one - closed_sum))
            assert abs(one - closed_sum) <= 1e-10, (n, i)
            for j in range(2, n + 1):
                numeric = two_tangle(reduce_pure_state(state, (1, j))).value
                dev = abs(wclass_two_tangle(params, j).value - numeric)
                worst_pair = max(worst_pair, dev)
                assert dev <= 1e-9, (n, i, j)
    print(f"\n[C2] PASS: 500 states x n in 3..6, "
          f"max |one - sum(two)| = {worst_sum:.2e} (tol 1e-10), "
          f"max closed-vs-numeric pair dev = {worst_pair:.2e} (tol 1e-9)")


def test_c3_reduction_structure():
    """Criterion 3: hub-containing reductions have rank <= 2 and the
    (p, x, q) mixture reconstructs the partial trace."""
    rng = np.random.default_rng(33)
    worst_eig = 0.0
    worst_recon = 0.0
    for i in range(200):
        n = int(rng.integers(3, 8))
        params = wclass_random(n, 30_000 + i)
        state = wclass_state(params)
        size = int(rng.integers(2, n))
        keep = (1,) + tuple(sorted(
            rng.choice(np.arange(2, n + 1), size=size - 1,
                       replace=False).tolist()
        ))
        true = reduce_pure_state(state, keep)
        evals = np.linalg.eigvalsh(true.matrix)
        third = float(evals[-3]) if len(evals) >= 3 else 0.0
        worst_eig = max(worst_eig, third)
        assert third <= 1e-10, (i, n, keep)
        red = wclass_reduction(params, keep)
        x = red.x_state.amplitudes
        model = red.p * np.outer(x, x.conj())
        model[0, 0] += red.q
        recon = float(np.max(np.abs(model - true.matrix)))
        worst_recon = max(worst_recon, recon)
        assert recon <= 1e-9, (i, n, keep)
    print(f"\n[C3] PASS: 200 reductions, max third eigenvalue = "
          f"{worst_eig:.2e} (tol 1e-10), max reconstruction dev = "
          f"{worst_recon:.2e} (tol 1e-9)")


def test_c4_higher_roof_terms_vanish():
    """Criterion 4: all level-3 and level-4 roof terms of five-qubit
    single-excitation-class states vanish."""
    worst = 0.0
    for i in range(50):
        params = wclass_random(5, 40_000 + i)
        report = verify_saturation(params, C1_CFG)
        three = [t for t in report.terms if t.m == 3]
        four = [t for t in report.terms if t.m == 4]
        assert len(three) == 6 and len(four) == 4
        for term in three + four:
            worst = max(worst, term.value)
            assert term.value <= 1e-6, (i, term.partners, term.value)
    print(f"\n[C4] PASS: 50 five-qubit states, 6+4 roof terms each, "
          f"max term = {worst:.2e} (tol 1e-6)")


def test_c5_roof_matches_concurrence(c5):
    """Criterion 5: the roof search reproduces squared concurrence on
    random-rank two-qubit mixed states."""
    worst = max(abs(r["roof"] - r["oracle"]) for r in c5["records"])
    for record in c5["records"]:
        assert abs(record["roof"] - record["oracle"]) <= 1e-4, record
    assert c5["seconds"] < 120.0
    print(f"\n[C5] PASS: {len(c5['records'])} states, "
          f"max |roof - C^2| = {worst:.2e} (tol 1e-4), "
          f"{c5['seconds']:.1f} s (bound 120 s)")


def test_c6_ckw_on_haar_states(c6_states, ghz3):
    """Criterion 6: CKW residual is nonnegative on Haar-random three-qubit
    states; GHZ has unit residual and unit three-tangle."""
    worst = 0.0
    for state in c6_states:
        residual = ckw_residual(state, 1)
        worst = min(worst, residual)
        assert residual >= -1e-9
    ghz_res = ckw_residual(ghz3, 1)
    assert ghz_res == pytest.approx(1.0, abs=1e-9)
    ghz_tangle = n_tangle_pure(ghz3, 1, C1_CFG).value
    assert ghz_tangle == pytest.approx(1.0, abs=1e-9)
    print(f"\n[C6] PASS: 500 Haar states, min ckw_residual = {worst:.2e} "
          f"(bound -1e-9); GHZ residual = {ghz_res:.12f}, "
          f"three-tangle = {ghz_tangle:.12f} (both 1 +/- 1e-9)")


def test_c7_refinement_chain(c1, c6_states):
    """Criterion 7: the strong-monogamy bound refines CKW on every state
    evaluated in criteria 1 and 6."""
    checked = 0
    for report in c1["reports"].values():
        assert report.sm_residual <= report.ckw_residual + 1e-9
        checked += 1
    for state in c6_states:
        report = sm_residual(state, 1, C1_CFG)
        assert report.sm_residual <= report.ckw_residual + 1e-9
        checked += 1
    print(f"\n[C7] PASS: sm_residual <= ckw_residual + 1e-9 on "
          f"{checked} states")


def test_c8_decomposition_independence(w3):
    """Criterion 8: the ensemble objective of the symmetric three-qubit
    state's pair reduction is 2/3 for every decomposition."""
    rho = reduce_pure_state(w3, (1, 2))
    rows = rho.eigen_rows
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        r = int(rng.integers(2, 6))
        mixed = hjw_mix(rows, _random_unitary(r, rng))
        objective = sum(
            p * np.sqrt(max(0.0, pure_functional_2q(member)))
            for p, member in members(mixed)
        )
        worst = max(worst, abs(objective - 2 / 3))
        assert objective == pytest.approx(2 / 3, abs=1e-8)
    print(f"\n[C8] PASS: 100 random mixings, max |objective - 2/3| = "
          f"{worst:.2e} (tol 1e-8)")


def test_c9_determinism(c1, c5, tmp_path):
    """Criterion 9: rerunning criteria 1 and 5 with identical seeds yields
    bit-identical report files."""
    first_c1 = tmp_path / "c1_first.json"
    first_c5 = tmp_path / "c5_first.json"
    first_c1.write_bytes(c1["bytes"])
    first_c5.write_bytes(c5["bytes"])
    second_c1 = tmp_path / "c1_second.json"
    second_c5 = tmp_path / "c5_second.json"
    second_c1.write_bytes(serialize_reports(run_criterion1()))
    second_c5.write_bytes(serialize_records(run_criterion5()))
    assert first_c1.read_bytes() == second_c1.read_bytes()
    assert first_c5.read_bytes() == second_c5.read_bytes()
    print("\n[C9] PASS: criterion 1 and 5 report files are bit-identical "
          "across reruns")
