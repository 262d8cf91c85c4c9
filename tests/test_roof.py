import dataclasses
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
    _DENSE_GRID,
    _SCAN_THETA,
    RoofConfig,
    _binary_form,
    _hjw_search,
    _Objective,
    _pair_profile,
    _random_unitary,
    _rank2_lp,
    _scan_tables,
    _simplex,
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
from .conftest import ckw_three_tangle, count_calls, members, random_mixed_2q

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


class TestEigenRows:
    def test_rank_one_projector(self, bell_state):
        rows = density_from_pure(bell_state).eigen_rows
        assert len(rows) == 1
        assert members(rows)[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        rho = DensityOperator((1,), np.eye(2, dtype=complex) / 2)
        rows = rho.eigen_rows
        assert sorted(p for p, _ in members(rows)) == pytest.approx([0.5, 0.5])

    def test_w_pair_reduction_rank_two(self, w3):
        rho = reduce_pure_state(w3, (1, 2))
        rows = rho.eigen_rows
        assert len(rows) == 2
        assert_allclose(density(rows), rho.matrix, atol=1e-9)

    def test_rows_are_read_only(self, w3):
        rho = reduce_pure_state(w3, (1, 2))
        with pytest.raises(ValueError, match="read-only"):
            rho.eigen_rows[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.eigen_rows = np.zeros((1, 4))

    def test_one_eigen_solve_per_operator(self, monkeypatch):
        # the eigh of the PSD check gives the rows the roof starts from
        calls = count_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh"))
        rho = reduce_pure_state(haar_random_state(4, 3), (1, 2, 3))
        result = m_tangle_mixed(rho, 1, (2, 3), pure_three_tangle, RoofConfig())
        assert result.method == "rank2_lp"
        assert calls == ["eigh"]


class TestHjwMix:
    def test_identity_keeps_ensemble(self, w3):
        rows = reduce_pure_state(w3, (1, 2)).eigen_rows
        mixed = hjw_mix(rows, np.eye(len(rows)))
        probs = sorted(p for p, _ in members(mixed))
        assert probs == pytest.approx(sorted(p for p, _ in members(rows)))
        assert_allclose(density(mixed), density(rows), atol=1e-12)

    def test_permutation_swaps_members(self, w3):
        rows = reduce_pure_state(w3, (1, 2)).eigen_rows
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
        rows = rho.eigen_rows
        if r < len(rows):
            r = len(rows)
        mixing = _random_unitary(r, np.random.default_rng(seed + 1))
        mixed = hjw_mix(rows, mixing)
        assert_allclose(density(mixed), rho.matrix, atol=1e-9)

    def test_non_unitary_rejected(self, w3):
        rows = reduce_pure_state(w3, (1, 2)).eigen_rows
        with pytest.raises(InputError):
            hjw_mix(rows, np.ones((2, 2), dtype=complex))

    @pytest.mark.parametrize("make", [
        lambda: np.full((2, 2), np.nan, dtype=complex),
        lambda: np.diag([np.inf, np.inf]).astype(complex),
        lambda: np.where(np.eye(2) == 1, 1.0, np.array([[0, np.nan], [0, 0]])),
    ], ids=["nan", "inf_identity", "one_nan_entry"])
    def test_non_finite_mixing_rejected(self, w3, make):
        # NaN compared with the unitarity tolerance must not read as unitary
        rows = reduce_pure_state(w3, (1, 2)).eigen_rows
        with pytest.raises(InputError, match="finite"):
            hjw_mix(rows, make())

    def test_too_small_mixing_rejected(self, w3):
        rows = reduce_pure_state(w3, (1, 2)).eigen_rows
        with pytest.raises(InputError):
            hjw_mix(rows, np.eye(1, dtype=complex))


class TestDecompositionIndependence:
    def test_w_pair_objective_constant(self, w3):
        # every decomposition of the W pair reduction gives the same
        # objective 2 |b_1| |b_2| = 2/3
        rows = reduce_pure_state(w3, (1, 2)).eigen_rows
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

    @pytest.mark.parametrize("where", ["always", "above_0.3"])
    def test_nan_leaf_is_an_internal_failure(self, where):
        # a NaN contribution used to count as 0, which certified a zero
        # roof (converged) where pure_functional_2q gives 0.1909
        def leaf(member):
            tau = pure_functional_2q(member)
            return math.nan if where == "always" or tau > 0.3 else tau

        cfg = RoofConfig(restarts=2, max_sweeps=5)
        with pytest.raises(RuntimeError, match="nan"):
            m_tangle_mixed(random_mixed_2q(5003), 1, (2,), leaf, cfg)

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
            canonical = ensemble_objective(rho.eigen_rows)
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
                # the seed grid's flattened points follow the scan's layout
                theta = _DENSE_GRID[0][flat]
                phi = _DENSE_GRID[1][flat]
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


def dense_simplex(A, c, b, basis):
    """Reference for roof._simplex: the same pricing and ratio rules, with
    the basis inverted afresh and the weights solved afresh every pivot."""
    bland = False
    for _ in range(roof._LP_MAX_PIVOTS):
        inverse = np.linalg.inv(A[:, basis])
        x = inverse @ b
        reduced = c - (c[basis] @ inverse) @ A
        if bland:
            candidates = np.flatnonzero(reduced < -roof._LP_TOL)
            if not len(candidates):
                break
            enter = int(candidates[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -roof._LP_TOL:
                break
        direction = inverse @ A[:, enter]
        usable = direction > roof._LP_PIVOT_TOL
        ratios = np.full(len(x), np.inf)
        ratios[usable] = np.maximum(x[usable], 0.0) / direction[usable]
        step = ratios.min()
        if bland:  # rows within _LP_STALL of the smallest ratio tie
            ties = np.flatnonzero(ratios <= step + roof._LP_STALL)
            leave = int(min(ties, key=lambda row: basis[row]))
        else:
            leave = int(np.argmin(ratios))
        bland = step <= roof._LP_STALL
        basis[leave] = enter
    else:
        raise AssertionError("reference simplex did not finish")
    return np.linalg.solve(A[:, basis], b)


def random_feasible_lp(seed):
    """A bounded LP with 3-9 rows, a first row of ones and a feasible start
    basis on the first columns; some start weights are zero (degenerate
    pivots), and some columns repeat with their costs (tied prices)."""
    rng = np.random.default_rng([12, seed])
    rows = int(rng.integers(3, 10))
    cols = int(rng.integers(3 * rows, 12 * rows))
    A = rng.uniform(-1.0, 1.0, (rows, cols))
    A[0] = 1.0
    c = rng.uniform(0.0, 1.0, cols)
    for _ in range(int(rng.integers(0, rows))):
        src, dst = rng.choice(np.arange(rows, cols), size=2, replace=False)
        A[:, dst], c[dst] = A[:, src], c[src]
    start = rng.uniform(0.1, 1.0, rows)
    start[rng.random(rows) < 0.3] = 0.0
    start[0] = max(start[0], 0.5)
    return A, c, A[:, :rows] @ start, list(range(rows))


def lp_optimum(A, c, basis, x):
    """Sorted (label, weight) of the basic columns with positive weight.

    A repeated column is labelled by its first copy, and zero-weight basic
    columns are left out: at a degenerate optimum the ratio ties, which
    rounding decides, may end in another basis with the same weights."""
    first = {}
    for k in range(A.shape[1]):
        first.setdefault(tuple(A[:, k]) + (c[k],), k)
    return sorted((first[tuple(A[:, k]) + (c[k],)], weight)
                  for k, weight in zip(basis, x) if weight > 1e-12)


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

    @pytest.mark.parametrize("p", [0.64, 0.66, 0.68, 0.70, 0.72, 0.8, 0.9, 0.97])
    def test_ghz_w_mixture_stays_below_the_tau_roof(self, p):
        # one-sided: Lohmayer et al. give the roof of tau itself, while the
        # term is [roof of sqrt(tau)]^2, which by Jensen lies at or below
        # it, and above p0 far below (0.0034 against 0.0557 at p = 0.6487)
        cbrt2 = 2.0 ** (1.0 / 3.0)
        assert p > 4.0 * cbrt2 / (3.0 + 4.0 * cbrt2)
        if p <= 0.5 + 3.0 * math.sqrt(465.0) / 310.0:
            tau_roof = (p * p - 8.0 * math.sqrt(6.0) / 9.0
                        * math.sqrt(p * (1.0 - p) ** 3))
        else:
            tau_roof = 1.0 - (1.0 - p) * (1.5 + math.sqrt(465.0) / 18.0)
        rho = ghz_w_mixture(p)
        result = m_tangle_mixed(rho, 1, (2, 3), pure_three_tangle, RoofConfig())
        assert result.method == "rank2_lp"
        assert result.value <= tau_roof + 1e-12
        assert np.max(np.abs(density(result.best_rows) - rho.matrix)) <= 1e-12

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
                search = _hjw_search(rho.eigen_rows,
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

    def test_certified_zero_ends_at_the_lp_start(self, monkeypatch):
        # W-class reductions: the eigen-rows are a certified zero, and they
        # are the LP's start basis, so neither a pivot nor a search runs
        calls = count_calls(monkeypatch, roof,
                            ("_hjw_search", "hjw_mix", "_simplex"))
        params = wclass_random(4, 77)
        rho = reduce_pure_state(wclass_state(params), (1, 2, 3))
        assert len(rho.eigen_rows) == 2
        result = m_tangle_mixed(rho, 1, (2, 3), pure_three_tangle, RoofConfig())
        assert result.method == "rank2_lp"
        assert result.restarts_used == 0
        assert result.converged
        assert result.value <= roof.EARLY_STOP_VALUE
        assert np.max(np.abs(density(result.best_rows) - rho.matrix)) <= 1e-12
        assert calls == []
        # the counters see a rank-2 roof that is not a zero
        m_tangle_mixed(ghz_w_mixture(0.9), 1, (2, 3), pure_three_tangle,
                       RoofConfig())
        assert "_simplex" in calls

    def test_two_qubit_roofs_stay_on_the_search(self):
        rho = random_mixed_2q(1)
        assert len(rho.eigen_rows) == 2
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
        x = _simplex(A, c, b, basis, [])
        assert c[basis] @ x == pytest.approx(-0.05, abs=1e-12)
        assert np.all(x >= -1e-12)

    # seed 575 has ratio ties that differ by rounding: Bland's rule must
    # treat them as ties, or the reference cycles to its pivot cap
    @pytest.mark.parametrize("seed", [*range(50), 575])
    def test_simplex_matches_a_fresh_inverse_every_pivot(self, seed):
        A, c, b, start = random_feasible_lp(seed)
        basis, dense_basis = list(start), list(start)
        got = lp_optimum(A, c, basis, _simplex(A, c, b, basis, []))
        expected = lp_optimum(A, c, dense_basis,
                              dense_simplex(A, c, b, dense_basis))
        assert [k for k, _ in got] == [k for k, _ in expected]
        assert_allclose([w for _, w in got], [w for _, w in expected],
                        rtol=0.0, atol=1e-12)

    def test_rows_give_the_lp_objective(self, monkeypatch):
        # the returned rows reconstruct rho, and their value is sum_k x_k c_k
        # at the optimal basis: a misaligned slice of the points, of A or
        # of c breaks one of the two
        objectives = []
        simplex = roof._simplex

        def recorded(A, c, b, basis, *state):
            x = simplex(A, c, b, basis, *state)
            objectives.append(c[basis] @ x)
            return x

        monkeypatch.setattr(roof, "_simplex", recorded)
        reductions = [reduce_pure_state(haar_random_state(4, 4000 + seed),
                                        (1,) + partners)
                      for seed in range(20)
                      for partners in ((2, 3), (2, 4), (3, 4))]
        reductions += [ghz_w_mixture(p) for p in (0.2, 0.7, 0.9)]
        for rho in reductions:
            partners = tuple(label for label in rho.qubit_labels if label != 1)
            result = m_tangle_mixed(rho, 1, partners, pure_three_tangle,
                                    RoofConfig())
            assert result.method == "rank2_lp"
            assert np.max(np.abs(density(result.best_rows) - rho.matrix)) <= 1e-12
            # not closer: the zero members sit at |form| = 1e-13, where the
            # table's form and Det of the row differ in sqrt by up to 1e-8
            assert result.value == pytest.approx(objectives[-1] ** 2, abs=1e-9)


def ghz_basis_mixture() -> DensityOperator:
    """0.7 |GHZ><GHZ| + 0.3 |011><011|: Det(GHZ + z |011>) is the constant
    1/4, so the binary quartic has no zeros at all."""
    ghz = np.zeros(8, dtype=complex)
    ghz[[0, 7]] = 2 ** -0.5
    basis = np.eye(8)[3]
    return DensityOperator((1, 2, 3), 0.7 * np.outer(ghz, ghz.conj())
                           + 0.3 * np.outer(basis, basis))


class TestRank2Batch:
    def test_batch_equals_one_at_a_time(self, monkeypatch):
        # one _rank2_lp call over a mixed batch gives every term the result
        # it gets alone, bit for bit: every column round is the same width
        # for every term, a term short of zeros or weighted basic points
        # repeats a point it has after its own, and the stacked points, A
        # and c are appended to as a whole, so a misaligned term or a copy
        # that enters the basis shows here
        widths, centres = [], []
        simplex = roof._simplex

        def recorded(A, c, b, basis, *state):
            x = simplex(A, c, b, basis, *state)
            widths.append(A.shape[1])
            centres.append(int(np.count_nonzero(x > 0.0)))
            for k in basis:  # no basic column repeats an earlier one
                repeats = (A[:, :k] == A[:, k:k + 1]).all(axis=0)
                assert not (repeats & (c[:k] == c[k])).any()
            return x

        monkeypatch.setattr(roof, "_simplex", recorded)
        state = haar_random_state(4, 4000)
        rhos = [
            ghz_w_mixture(0.9),     # W on -z: Q_4 vanishes to rounding
            ghz_basis_mixture(),    # no zeros, two centres a patch round
            reduce_pure_state(wclass_state(wclass_random(4, 77)), (1, 2, 3)),
            density_from_pure(haar_random_state(3, 5)),
            *(reduce_pure_state(state, (1,) + partners)
              for partners in ((2, 3), (2, 4), (3, 4))),
        ]
        rows = [rho.eigen_rows for rho in rhos]
        assert [len(r) for r in rows] == [2, 2, 2, 1, 2, 2, 2]
        alone, added, seeded = [], [], []
        for r in rows:
            widths.clear()
            centres.clear()
            alone.append(_rank2_lp([r], [_Objective(pure_three_tangle)])[0])
            added.append(tuple(np.diff([roof._LP_GRID + 4] + widths)))
            seeded.append(tuple(centres[:-1]))  # the last solve seeds nothing
        # the premises: both start exits pivot nowhere, every pivoting term
        # adds 4 and then 4 x 24 columns a round, the quartic of the GHZ/W
        # mixture nearly loses its leading coefficient, and the GHZ/basis
        # mixture pads every round: it has no zero, so its zeros round is
        # four copies of +z, and two weighted basic points a solve, so each
        # patch round repeats its first centre's patch
        assert added[2] == added[3] == ()
        assert added[0] == added[1] == added[4] == added[5] == added[6] == (
            4, 96, 96, 96)
        units = [r / np.linalg.norm(r, axis=1)[:, None] for r in rows[:2]]
        quartics = [_binary_form(4, pure_three_tangle.polynomial[1], *u)
                    for u in units]
        assert abs(quartics[0][4]) < 1e-15 < abs(quartics[0][0])
        assert len(roof._quartic_zeros(quartics[1])[0]) == 0
        assert seeded[1] == (2, 2, 2)

        batch = _rank2_lp(rows, [_Objective(pure_three_tangle) for _ in rows])
        assert len(batch) == len(rows)
        for single, result in zip(alone, batch):
            assert result.value == single.value
            assert np.array_equal(result.best_rows, single.best_rows)
            assert result.min_pure_tangle_seen == single.min_pure_tangle_seen
            assert (result.method, result.converged, result.restarts_used) == (
                single.method, single.converged, single.restarts_used)


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
                assert len(rho.eigen_rows) >= 3
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

