import dataclasses
import json
from itertools import combinations

import numpy as np
import pytest

from monotangle.monogamy import (
    ckw_residual,
    max_m3plus_term,
    sm_residual,
    sweep_foci,
    verify_saturation,
)
from monotangle import roof, tangle
from monotangle.qstate import (
    InputError,
    StateVector,
    haar_random_state,
    ket_from_basis_terms,
)
from monotangle.roof import EARLY_STOP_VALUE, RoofConfig
from monotangle.tangle import n_tangle_pure
from monotangle.wclass import (
    WClassParams,
    w_state_params,
    wclass_random,
    wclass_state,
)
from .conftest import count_calls
from .test_acceptance import C1_CFG

CFG = RoofConfig(seed=17)
CFG_SMALL = RoofConfig(seed=17, restarts=4, max_sweeps=60)


def ghz(n):
    return ket_from_basis_terms(
        n, [("0" * n, 2 ** -0.5), ("1" * n, 2 ** -0.5)]
    )


class TestCkwResidual:
    def test_ghz3_full_slack(self, ghz3):
        assert ckw_residual(ghz3, 1) == pytest.approx(1.0, abs=1e-9)

    def test_product_state_zero(self):
        state = ket_from_basis_terms(4, [("0101", 1)])
        assert ckw_residual(state, 1) == pytest.approx(0.0, abs=1e-12)

    def test_wclass_saturates(self):
        for n, seed in ((3, 1), (4, 2), (5, 3), (6, 4)):
            state = wclass_state(wclass_random(n, seed))
            assert abs(ckw_residual(state, 1)) <= 1e-9

    def test_two_qubit_pure_saturates(self, bell_state):
        assert ckw_residual(bell_state, 1) == pytest.approx(0.0, abs=1e-10)

    def test_haar_states_nonnegative(self):
        for seed in range(50):
            state = haar_random_state(3, 9000 + seed)
            assert ckw_residual(state, 1) >= -1e-9

    def test_matches_sm_report_exactly(self):
        # both residuals fold the same level-2 terms, bit for bit
        for seed in range(2000):
            state = haar_random_state(3, 20_000 + seed)
            for focus in (1, 2, 3):
                assert ckw_residual(state, focus) == sm_residual(
                    state, focus, CFG).ckw_residual


class TestSmResidual:
    def test_w3(self, w3):
        report = sm_residual(w3, 1, CFG)
        assert abs(report.sm_residual) <= 1e-9
        assert report.saturated_sm
        assert report.saturated_ckw
        assert not report.sm_violation

    def test_w4_term_structure(self):
        report = sm_residual(wclass_state(w_state_params(4)), 1, CFG)
        two_terms = [t for t in report.terms if t.m == 2]
        three_terms = [t for t in report.terms if t.m == 3]
        assert len(two_terms) == 3 and len(three_terms) == 3
        for t in two_terms:
            assert t.value == pytest.approx(0.25, abs=1e-12)
            assert t.method == "closed_form"
        for t in three_terms:
            assert t.value <= 1e-6
            assert t.method == "rank2_lp"
            assert t.converged
        assert abs(report.sm_residual) <= 1e-6
        assert report.saturated_sm

    def test_three_qubit_verdicts_share_the_closed_tolerance(self):
        # no roof enters at n = 3, so the SM verdict is closed-form
        # arithmetic like CKW: a residual of 3e-7 is not saturation
        amps = np.zeros(8, dtype=complex)
        amps[[4, 2, 1]] = 3 ** -0.5
        amps[[0, 7]] = 1e-7
        state = StateVector(3, amps / np.linalg.norm(amps))
        report = sm_residual(state, 1, CFG)
        assert report.sm_residual == pytest.approx(3.08e-7, rel=1e-3)
        assert report.sm_residual == report.ckw_residual
        assert not report.saturated_ckw
        assert not report.saturated_sm
        assert not report.sm_violation

    def test_ghz4_slack_not_violation(self):
        report = sm_residual(ghz(4), 1, CFG)
        assert report.sm_residual == pytest.approx(1.0, abs=1e-9)
        assert not report.saturated_sm
        assert not report.sm_violation
        assert max_m3plus_term(report) <= 1e-9

    def test_terms_cover_partner_subsets_in_order(self):
        report = sm_residual(wclass_state(wclass_random(5, 13)), 2, CFG)
        partners = [t.partners for t in report.terms]
        expected = [combo for size in (1, 2, 3)
                    for combo in combinations((1, 3, 4, 5), size)]
        assert partners == expected
        assert len(partners) == len(set(partners)) == 14
        assert [t.m for t in report.terms] == [len(p) + 1 for p in expected]

    def test_matches_recursive_n_tangle(self):
        for state in (
            wclass_state(wclass_random(4, 41)),
            ghz(4),
            haar_random_state(3, 314),
        ):
            report = sm_residual(state, 1, CFG_SMALL)
            recursive = n_tangle_pure(state, 1, CFG_SMALL)
            assert report.sm_residual == pytest.approx(
                recursive.value, abs=1e-9
            )

    def test_refinement_chain(self):
        for n, seed in ((4, 7), (5, 8)):
            state = wclass_state(wclass_random(n, seed))
            report = sm_residual(state, 1, CFG)
            assert report.sm_residual <= report.ckw_residual + 1e-9
        report = sm_residual(ghz(4), 1, CFG)
        assert report.sm_residual <= report.ckw_residual + 1e-9

    def test_report_self_consistent(self):
        state = wclass_state(wclass_random(5, 12))
        report = sm_residual(state, 1, CFG)
        ckw = report.one_tangle - sum(
            t.value for t in report.terms if t.m == 2
        )
        sm = report.one_tangle - sum(t.pow_value for t in report.terms)
        assert ckw == pytest.approx(report.ckw_residual, abs=1e-12)
        assert sm == pytest.approx(report.sm_residual, abs=1e-12)

    def test_small_system_rejected(self, bell_state):
        with pytest.raises(InputError):
            sm_residual(bell_state, 1, CFG)

    @pytest.mark.parametrize("tols", [
        {"tol_roof": -1.0}, {"tol_closed": -0.5},
        {"tol_closed": float("nan")}, {"tol_roof": float("inf")},
    ])
    def test_bad_tolerance_rejected(self, w3, tols):
        # a negative or NaN tolerance would flip or void the verdicts
        with pytest.raises(InputError, match="must be finite and >= 0"):
            sm_residual(w3, 1, CFG, **tols)

    def test_eight_qubits_evaluated(self):
        # the qubit cap is the CLI's; the library takes any state it holds
        report = sm_residual(ket_from_basis_terms(8, [("0" * 8, 1.0)]), 1,
                             CFG)
        assert len(report.terms) == 2 ** 7 - 2
        assert max(t.m for t in report.terms) == 7
        assert abs(report.sm_residual) <= 1e-12
        assert report.saturated_sm

    def test_focus_other_than_hub(self):
        # W states are symmetric: every hub choice saturates
        report = sm_residual(wclass_state(w_state_params(4)), 3, CFG)
        assert report.saturated_sm

    def test_json_dict_shape(self):
        report = sm_residual(wclass_state(w_state_params(4)), 1, CFG)
        record = report.to_json_dict()
        assert {"focus", "terms", "ckw_residual", "sm_residual"} <= set(record)
        term = record["terms"][0]
        assert {"partners", "m", "value", "pow"} <= set(term)
        json.dumps(record)  # must be serializable as-is


class TestVerifySaturation:
    def test_w5(self):
        report = verify_saturation(w_state_params(5), CFG)
        assert report.saturated_sm
        assert max_m3plus_term(report) <= 1e-6

    def test_degenerate_coefficient(self):
        params = WClassParams(2 ** -0.5, np.array([0.5, 0.5, 0.0]))
        report = verify_saturation(params, CFG)
        assert report.one_tangle == pytest.approx(0.25, abs=1e-12)
        assert report.saturated_sm

    def test_random_six_qubit(self):
        report = verify_saturation(wclass_random(6, 4321), CFG)
        assert report.saturated_sm
        assert abs(report.sm_residual) <= 1e-6

    def test_roofs_stop_at_the_eigen_ensemble(self, monkeypatch):
        # every member of a W-class reduction has zero m-tangle, so each
        # roof is a certified zero on its eigen-rows: a level-3 term ends
        # at the start basis of the rank-2 LP, an m >= 4 term at restart 0
        # of the search, and neither a pair step nor an LP pivot runs.
        # n = 7 reaches level-6 terms, which criterion 1 (n <= 6) does not.
        calls = count_calls(monkeypatch, roof, ("_pair_step", "_simplex"))
        params = [wclass_random(n, 500 + n) for n in (4, 5, 6, 7)]
        params += [w_state_params(5), w_state_params(6), w_state_params(7)]
        for p in params:
            report = verify_saturation(p, C1_CFG)
            roofs = [t for t in report.terms if t.m >= 3]
            assert roofs
            assert max(t.m for t in roofs) == len(p.b) - 1
            for term in roofs:
                if term.m == 3:
                    assert (term.method, term.restarts_used) == ("rank2_lp", 0)
                else:
                    assert (term.method, term.restarts_used) == ("roof", 1)
                assert term.converged
                assert term.value <= EARLY_STOP_VALUE
        assert calls == []

    def test_nested_non_convergence_marks_the_term(self, monkeypatch):
        # an m = 4 term is unconverged when a nested level-3 roof is
        lp = roof._rank2_lp
        monkeypatch.setattr(
            roof, "_rank2_lp", lambda *args: [
                dataclasses.replace(result, converged=False)
                for result in lp(*args)])
        report = verify_saturation(w_state_params(5), RoofConfig())
        level4 = [t for t in report.terms if t.m == 4]
        assert len(level4) == 4
        for term in level4:
            assert term.method == "roof"
            assert term.converged is False
        assert report.converged is False

    def test_one_unconverged_nested_roof_marks_the_term(self, monkeypatch):
        # every other LP reports non-convergence, and the record of an m = 4
        # term keeps at most the two flag values however many members its
        # search evaluates
        lp, leaf = roof._rank2_lp, tangle._pure_m_tangle_amps
        lp_calls, record_sizes = [], []

        def half_converged(*args):
            results = []
            for result in lp(*args):
                lp_calls.append(None)
                results.append(dataclasses.replace(
                    result, converged=len(lp_calls) % 2 == 0))
            return results

        def recorded_leaf(*args):
            value = leaf(*args)
            record_sizes.append(len(args[4]))
            return value

        monkeypatch.setattr(roof, "_rank2_lp", half_converged)
        monkeypatch.setattr(tangle, "_pure_m_tangle_amps", recorded_leaf)
        report = verify_saturation(w_state_params(5), RoofConfig())
        level4 = [t for t in report.terms if t.m == 4]
        assert len(level4) == 4
        for term in level4:
            assert (term.method, term.converged) == ("roof", False)
        assert report.converged is False
        assert record_sizes and max(record_sizes) <= 2


class TestSweepFoci:
    def test_w4_all_foci_saturate(self):
        reports = sweep_foci(wclass_state(w_state_params(4)), CFG)
        assert [r.focus for r in reports] == [1, 2, 3, 4]
        assert all(r.saturated_sm for r in reports)
