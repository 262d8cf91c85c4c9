import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from monotangle.qstate import (
    DensityOperator,
    InputError,
    density_from_pure,
    haar_random_state,
    ket_from_basis_terms,
    reduce_pure_state,
)
from monotangle import roof
from monotangle.roof import (
    _SCAN_PHI,
    _SCAN_THETA,
    RoofConfig,
    _binary_form,
    _hjw_search,
    _Objective,
    _pair_profile,
    _random_unitary,
    _scan_tables,
    _simplex,
    canonical_ensemble,
    hjw_mix,
    m_tangle_mixed,
)
from monotangle.tangle import (
    concurrence_2q,
    mixed_tangle_term,
    pure_functional_2q,
    pure_three_tangle,
)
from monotangle.wclass import wclass_random, wclass_reduction, wclass_state
from .conftest import ckw_three_tangle, members, random_mixed_2q

# mirrors the acceptance configuration for two-qubit roof searches
CFG_2Q = RoofConfig(seed=7, restarts=4, padding=2, max_sweeps=40, tol=1e-8)


def ensemble_objective(rows) -> float:
    """sum_h p_h sqrt(tau_h) evaluated directly on decomposition members."""
    return sum(
        p * np.sqrt(max(0.0, pure_functional_2q(member)))
        for p, member in members(rows)
    )


def density(rows) -> np.ndarray:
    """sum_h p_h |psi_h><psi_h| of a decomposition given by its rows."""
    return rows.T @ rows.conj()


def assert_members_reproduce(rho, result):
    """best_rows decompose rho, and their members, evaluated with the
    expanded CKW three-tangle, give back the reported value."""
    rows = result.best_rows
    assert np.max(np.abs(density(rows) - rho.matrix)) <= 1e-12
    total = sum(p * math.sqrt(ckw_three_tangle(member))
                for p, member in members(rows))
    assert total ** 2 == pytest.approx(result.value, abs=1e-10)
    assert result.min_pure_tangle_seen >= 0.0


class TestCanonicalEnsemble:
    def test_rank_one_projector(self, bell_state):
        rows = canonical_ensemble(density_from_pure(bell_state))
        assert len(rows) == 1
        assert members(rows)[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        rho = DensityOperator((1,), np.eye(2, dtype=complex) / 2)
        rows = canonical_ensemble(rho)
        assert sorted(p for p, _ in members(rows)) == pytest.approx([0.5, 0.5])

    def test_w_pair_reduction_rank_two(self, w3):
        rho = reduce_pure_state(w3, (1, 2))
        rows = canonical_ensemble(rho)
        assert len(rows) == 2
        assert_allclose(density(rows), rho.matrix, atol=1e-9)


class TestHjwMix:
    def test_identity_keeps_ensemble(self, w3):
        rows = canonical_ensemble(reduce_pure_state(w3, (1, 2)))
        mixed = hjw_mix(rows, np.eye(len(rows)))
        probs = sorted(p for p, _ in members(mixed))
        assert probs == pytest.approx(sorted(p for p, _ in members(rows)))
        assert_allclose(density(mixed), density(rows), atol=1e-12)

    def test_permutation_swaps_members(self, w3):
        rows = canonical_ensemble(reduce_pure_state(w3, (1, 2)))
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        mixed = hjw_mix(rows, swap)
        assert members(mixed)[0][0] == pytest.approx(members(rows)[1][0])
        assert_allclose(
            np.abs(members(mixed)[0][1]),
            np.abs(members(rows)[1][1]),
            atol=1e-12,
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), r=st.integers(2, 5))
    def test_reconstruction_preserved(self, seed, r):
        rho = random_mixed_2q(seed)
        rows = canonical_ensemble(rho)
        if r < len(rows):
            r = len(rows)
        mixing = _random_unitary(r, np.random.default_rng(seed + 1))
        mixed = hjw_mix(rows, mixing)
        assert_allclose(density(mixed), rho.matrix, atol=1e-9)

    def test_non_unitary_rejected(self, w3):
        rows = canonical_ensemble(reduce_pure_state(w3, (1, 2)))
        with pytest.raises(InputError):
            hjw_mix(rows, np.ones((2, 2), dtype=complex))

    def test_too_small_mixing_rejected(self, w3):
        rows = canonical_ensemble(reduce_pure_state(w3, (1, 2)))
        with pytest.raises(InputError):
            hjw_mix(rows, np.eye(1, dtype=complex))


class TestDecompositionIndependence:
    def test_w_pair_objective_constant(self, w3):
        # every decomposition of the W pair reduction gives the same
        # objective 2 |b_1| |b_2| = 2/3
        rows = canonical_ensemble(reduce_pure_state(w3, (1, 2)))
        rng = np.random.default_rng(99)
        for _ in range(30):
            r = int(rng.integers(2, 5))
            mixed = hjw_mix(rows, _random_unitary(r, rng))
            assert ensemble_objective(mixed) == pytest.approx(2 / 3, abs=1e-10)

    def test_member_tangle_tracks_mixing_weight(self):
        # p_h^2 tau_h = 4 |u_h1|^4 |b_1|^2 |b_j|^2 for members built from
        # the (single-excitation, vacuum) pair of the reduction
        params = wclass_random(3, 31)
        red = wclass_reduction(params, (1, 2))
        vac = ket_from_basis_terms(2, [("00", 1.0)])
        rows = np.array([math.sqrt(red.p) * red.x_state.amplitudes,
                         math.sqrt(red.q) * vac.amplitudes])
        rng = np.random.default_rng(13)
        scale = 4 * abs(params.b[0]) ** 2 * abs(params.b[1]) ** 2
        for _ in range(10):
            mixing = _random_unitary(2, rng)
            mixed = hjw_mix(rows, mixing)
            for h, (p, member) in enumerate(members(mixed)):
                tau = pure_functional_2q(member)
                assert p ** 2 * tau == pytest.approx(
                    abs(mixing[h, 0]) ** 4 * scale, abs=1e-12
                )


class TestMTangleMixed:
    def test_pure_input_returns_pure_value(self):
        state = haar_random_state(2, 21)
        rho = density_from_pure(state)
        result = m_tangle_mixed(rho, 1, (2,), pure_functional_2q, CFG_2Q)
        assert result.value == pytest.approx(
            pure_functional_2q(state.amplitudes), abs=1e-12
        )
        assert result.converged

    @pytest.mark.parametrize("seed", range(20))
    def test_two_qubit_oracle_equivalence(self, seed):
        rho = random_mixed_2q(3000 + seed)
        result = m_tangle_mixed(rho, 1, (2,), pure_functional_2q, CFG_2Q)
        assert result.value == pytest.approx(
            concurrence_2q(rho) ** 2, abs=1e-4
        )

    def test_generic_pair_step_matches_closed_form(self, monkeypatch):
        # a leaf without a `polynomial` attribute takes the coarse-grid
        # pair step of the recursive m >= 4 leaves; C5's budget and first
        # six samples, against the concurrence closed form
        def plain(member):
            return pure_functional_2q(member)

        generic_steps = []
        pair_step = roof._pair_step

        def counted(M, objective, w, i, j):
            if objective.poly is None:
                generic_steps.append((i, j))
            return pair_step(M, objective, w, i, j)

        monkeypatch.setattr(roof, "_pair_step", counted)
        cfg = RoofConfig(seed=414243, restarts=4, padding=2, max_sweeps=40,
                         tol=1e-8)
        for s in range(6):
            rho = random_mixed_2q(5000 + s)
            result = m_tangle_mixed(rho, 1, (2,), plain, cfg)
            assert result.value == pytest.approx(
                concurrence_2q(rho) ** 2, abs=1e-4
            ), s
        assert generic_steps

    def test_wclass_three_tangle_roofs_vanish(self):
        from monotangle.tangle import mixed_tangle_term

        cfg = RoofConfig(seed=4)
        params = wclass_random(4, 77)
        state = wclass_state(params)
        for partners in ((2, 3), (2, 4), (3, 4)):
            term = mixed_tangle_term(state, 1, partners, cfg)
            assert term.value <= 1e-6
            assert term.roof.converged

    def test_seed_determinism(self):
        rho = random_mixed_2q(1234)
        a = m_tangle_mixed(rho, 1, (2,), pure_functional_2q, CFG_2Q)
        b = m_tangle_mixed(rho, 1, (2,), pure_functional_2q, CFG_2Q)
        assert a.value == b.value
        assert np.array_equal(a.best_rows, b.best_rows)

    def test_value_never_exceeds_canonical_objective(self):
        for seed in range(5):
            rho = random_mixed_2q(4000 + seed)
            canonical = ensemble_objective(canonical_ensemble(rho))
            result = m_tangle_mixed(rho, 1, (2,), pure_functional_2q, CFG_2Q)
            assert result.value <= canonical ** 2 + 1e-9

    def test_padding_monotone(self):
        # needs every padding level well-converged, hence the larger budget
        for seed in (11, 29):
            rho = random_mixed_2q(seed)
            values = []
            for padding in (0, 2, 4):
                cfg = RoofConfig(seed=5, restarts=10, padding=padding,
                                 max_sweeps=80, tol=1e-10)
                values.append(
                    m_tangle_mixed(rho, 1, (2,), pure_functional_2q, cfg).value
                )
            assert values[1] <= values[0] + 1e-7
            assert values[2] <= values[1] + 1e-7

    def test_budget_exhaustion_reports_not_raises(self):
        rho = random_mixed_2q(1017)  # rank 4, nonzero concurrence
        cfg = RoofConfig(seed=1, restarts=1, padding=2, max_sweeps=1,
                         tol=1e-16)
        result = m_tangle_mixed(rho, 1, (2,), pure_functional_2q, cfg)
        assert not result.converged
        assert result.value >= 0.0

    def test_wrong_labels_rejected(self, w3):
        rho = reduce_pure_state(w3, (1, 2))
        with pytest.raises(InputError):
            m_tangle_mixed(rho, 1, (3,), pure_functional_2q, CFG_2Q)

    def test_min_pure_tangle_tracked(self):
        rho = random_mixed_2q(8)
        result = m_tangle_mixed(rho, 1, (2,), pure_functional_2q, CFG_2Q)
        assert result.min_pure_tangle_seen >= -1e-12


POLYNOMIAL_LEAVES = [(pure_functional_2q, 4), (pure_three_tangle, 8)]


def _random_rows(rng, count, dim):
    """Unnormalized complex rows with squared norms between 0.1 and 2."""
    rows = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    scale = np.sqrt(rng.uniform(0.1, 2.0, count)) / np.linalg.norm(rows, axis=1)
    return rows * scale[:, None]


class TestPolynomialLeaves:
    @pytest.mark.parametrize("leaf, dim", POLYNOMIAL_LEAVES)
    def test_contribution_is_weighted_sqrt_leaf(self, leaf, dim):
        rng = np.random.default_rng(dim)
        objective = _Objective(leaf)
        for row in _random_rows(rng, 200, dim):
            p = float(np.vdot(row, row).real)
            expected = p * math.sqrt(leaf(row / math.sqrt(p)))
            assert objective.contribution(row) == pytest.approx(
                expected, abs=1e-12
            )

    @pytest.mark.parametrize("leaf, dim", POLYNOMIAL_LEAVES)
    def test_binary_form_reproduces_rotated_rows(self, leaf, dim):
        d, poly = leaf.polynomial
        rng = np.random.default_rng(10 + dim)
        k = np.arange(d + 1)
        for x, y in _random_rows(rng, 400, dim).reshape(200, 2, dim):
            coeffs = _binary_form(d, poly, x, y)
            theta = rng.uniform(-math.pi, math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            c, s, e = math.cos(theta), math.sin(theta), np.exp(1j * phi)
            row_i = c * x + e * s * y
            row_j = c * y - e.conjugate() * s * x
            assert np.sum(coeffs * c ** (d - k) * (e * s) ** k) == pytest.approx(
                poly(row_i), abs=1e-12
            )
            assert np.sum(coeffs * c ** k * (-e.conjugate() * s) ** (d - k)) == (
                pytest.approx(poly(row_j), abs=1e-12)
            )

    @pytest.mark.parametrize("leaf, dim", POLYNOMIAL_LEAVES)
    def test_profile_and_scan_match_rotated_contributions(self, leaf, dim):
        # the pair step scales the coefficients by 2^(d/2), so that the
        # profile and the scan read contributions directly
        d, poly = leaf.polynomial
        objective = _Objective(leaf)
        rng = np.random.default_rng(20 + dim)
        for x, y in _random_rows(rng, 40, dim).reshape(20, 2, dim):
            coeffs = 2.0 ** (d / 2) * _binary_form(d, poly, x, y)
            profile = _pair_profile(d, coeffs)
            radial, phases = _scan_tables(d)
            rows = np.abs((radial * coeffs) @ phases) ** (2.0 / d)
            grid = (rows[:len(_SCAN_THETA)] + rows[len(_SCAN_THETA):]).ravel()
            for flat in rng.choice(len(grid), size=8, replace=False):
                theta = _SCAN_THETA[flat // len(_SCAN_PHI)]
                phi = _SCAN_PHI[flat % len(_SCAN_PHI)]
                c, s, e = math.cos(theta), math.sin(theta), np.exp(1j * phi)
                expected = (objective.contribution(c * x + e * s * y)
                            + objective.contribution(c * y - e.conjugate() * s * x))
                assert profile(theta, phi) == pytest.approx(expected, abs=1e-12)
                assert grid[flat] == pytest.approx(expected, abs=1e-12)

    def test_level3_roof_reproduced_by_its_members(self):
        # the best rows decompose rho and, evaluated member by member with
        # the expanded CKW three-tangle, give back the reported value
        cfg = RoofConfig(seed=3, restarts=2, max_sweeps=20)
        checked = 0
        for seed in range(4):
            state = haar_random_state(4, 900 + seed)
            for partners in ((2, 3), (2, 4), (3, 4)):
                rho = reduce_pure_state(state, (1,) + partners)
                result = m_tangle_mixed(rho, 1, partners, pure_three_tangle, cfg)
                assert_members_reproduce(rho, result)
                checked += 1
        assert checked >= 10


def count_pair_steps(monkeypatch) -> list:
    """Replace roof._pair_step by a counting wrapper; returns its log."""
    steps = []
    pair_step = roof._pair_step

    def counted(*args):
        steps.append(args[3:5])
        return pair_step(*args)

    monkeypatch.setattr(roof, "_pair_step", counted)
    return steps


def ghz_w_mixture(p: float) -> DensityOperator:
    """p |GHZ><GHZ| + (1 - p) |W><W| on three qubits."""
    ghz = np.zeros(8, dtype=complex)
    ghz[[0, 7]] = 2 ** -0.5
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 3 ** -0.5
    return DensityOperator((1, 2, 3), p * np.outer(ghz, ghz.conj())
                           + (1 - p) * np.outer(w, w.conj()))


# the perfbench haar_sm budget
HAAR_CONFIG = RoofConfig(restarts=2, max_sweeps=1)


class TestRank2LinearProgram:
    def test_seed7_against_exact_values(self):
        # exact rank-2 roofs of haar_random_state(4, 7), hub 1, from
        # two-sided bounds of a column-generated LP (ROADMAP item 3)
        exact = {(2, 3): 1.6e-16, (2, 4): 1.0070980784e-2,
                 (3, 4): 2.7989439558e-4}
        state = haar_random_state(4, 7)
        for partners, value in exact.items():
            term = mixed_tangle_term(state, 1, partners, RoofConfig())
            assert term.method == "rank2_lp"
            assert term.value - value <= 1e-6, partners
            assert term.value >= value - 1e-12, partners

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.6])
    def test_ghz_w_mixture_vanishes_below_p0(self, p):
        # the roof is 0 up to p0 = 4 2^(1/3) / (3 + 4 2^(1/3)) ~ 0.627
        # (Lohmayer, Osterloh, Siewert & Uhlmann, PRL 97, 260502, 2006)
        rho = ghz_w_mixture(p)
        result = m_tangle_mixed(rho, 1, (2, 3), pure_three_tangle, RoofConfig())
        assert result.method == "rank2_lp"
        assert result.value <= 1e-8
        assert_members_reproduce(rho, result)

    def test_never_above_the_search(self, monkeypatch):
        # on 20 Haar n = 4 states the LP is no worse than the HJW search at
        # the benchmark budget, and it runs no pair step
        steps = count_pair_steps(monkeypatch)
        for seed in range(20):
            state = haar_random_state(4, 4000 + seed)
            for partners in ((2, 3), (2, 4), (3, 4)):
                rho = reduce_pure_state(state, (1,) + partners)
                result = m_tangle_mixed(rho, 1, partners, pure_three_tangle,
                                        HAAR_CONFIG)
                assert not steps
                search = _hjw_search(canonical_ensemble(rho),
                                     _Objective(pure_three_tangle), HAAR_CONFIG)
                assert steps
                steps.clear()
                assert result.value <= search.value + 1e-12, (seed, partners)
                assert_members_reproduce(rho, result)
                assert result.method == "rank2_lp"
                assert result.converged
                assert type(result.restarts_used) is int
                assert result.restarts_used == 0

    def test_config_does_not_apply(self):
        rho = reduce_pure_state(haar_random_state(4, 11), (1, 2, 4))
        a = m_tangle_mixed(rho, 1, (2, 4), pure_three_tangle, RoofConfig())
        b = m_tangle_mixed(rho, 1, (2, 4), pure_three_tangle, HAAR_CONFIG)
        assert a.value == b.value
        assert np.array_equal(a.best_rows, b.best_rows)

    def test_rank_one_is_the_pure_leaf(self):
        state = haar_random_state(3, 5)
        result = m_tangle_mixed(density_from_pure(state), 1, (2, 3),
                                pure_three_tangle, RoofConfig())
        assert result.method == "rank2_lp"
        assert result.value == pytest.approx(
            pure_three_tangle(state.amplitudes), abs=1e-12)
        assert len(result.best_rows) == 1

    def test_certified_zero_stays_on_the_search(self, w3):
        # W-class reductions: the eigen-rows are a certified zero, which
        # keeps criterion 1's reports unchanged
        params = wclass_random(4, 77)
        rho = reduce_pure_state(wclass_state(params), (1, 2, 3))
        result = m_tangle_mixed(rho, 1, (2, 3), pure_three_tangle, RoofConfig())
        assert result.method == "roof"
        assert result.restarts_used == 1
        assert result.value <= roof.EARLY_STOP_VALUE

    def test_two_qubit_roofs_stay_on_the_search(self):
        rho = random_mixed_2q(1)
        assert len(canonical_ensemble(rho)) == 2
        result = m_tangle_mixed(rho, 1, (2,), pure_functional_2q, CFG_2Q)
        assert result.method == "roof"

    def test_pivot_cap_raises(self, monkeypatch):
        # an unfinished LP is an internal failure, never a silent fallback
        monkeypatch.setattr(roof, "_LP_MAX_PIVOTS", 1)
        rho = reduce_pure_state(haar_random_state(4, 7), (1, 2, 4))
        with pytest.raises(RuntimeError, match="pivots"):
            m_tangle_mixed(rho, 1, (2, 4), pure_three_tangle, RoofConfig())

    def test_simplex_survives_beales_cycling_example(self):
        # most-negative pricing with first-row ties cycles on this LP
        # (Beale 1955); the optimum is -1/20 at w4 = 1/25, w6 = 1
        A = np.array([[1, 0, 0, 0.25, -60, -1 / 25, 9],
                      [0, 1, 0, 0.5, -90, -1 / 50, 3],
                      [0, 0, 1, 0, 0, 1, 0]])
        c = np.array([0, 0, 0, -0.75, 150, -1 / 50, 6])
        b = np.array([0.0, 0.0, 1.0])
        basis = [0, 1, 2]
        x = _simplex(A, c, b, basis)
        assert c[basis] @ x == pytest.approx(-0.05, abs=1e-12)
        assert np.all(x >= -1e-12)


class TestLevel3Search:
    def test_rank4_roof_reproduced_by_its_members(self, monkeypatch):
        # rank >= 3 level-3 reductions (n = 5, hub 1) still run the d = 4
        # HJW search; its best rows decompose rho and their members give
        # back the reported value
        steps = count_pair_steps(monkeypatch)
        cfg = RoofConfig(seed=3, restarts=2, max_sweeps=20)
        for seed in range(2):
            state = haar_random_state(5, 900 + seed)
            for partners in ((2, 3), (4, 5)):
                rho = reduce_pure_state(state, (1,) + partners)
                assert len(canonical_ensemble(rho)) >= 3
                result = m_tangle_mixed(rho, 1, partners, pure_three_tangle, cfg)
                assert result.method == "roof"
                assert_members_reproduce(rho, result)
        assert steps


class TestRoofConfig:
    def test_json_keys(self):
        assert set(RoofConfig().to_json_dict()) == {
            "seed", "restarts", "padding", "max_sweeps", "tol"
        }

    def test_validation(self):
        with pytest.raises(InputError):
            RoofConfig(restarts=0)
        with pytest.raises(InputError):
            RoofConfig(padding=-1)
        with pytest.raises(InputError):
            RoofConfig(tol=0.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(InputError, match="finite"):
                RoofConfig(tol=tol)

