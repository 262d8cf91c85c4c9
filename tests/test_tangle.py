from itertools import combinations

import numpy as np
import pytest

from monotangle.qstate import (
    DensityOperator,
    InputError,
    StateVector,
    density_from_pure,
    haar_random_state,
    ket_from_basis_terms,
    partial_trace,
    reduce_pure_state,
)
from monotangle.roof import RoofConfig, _random_unitary, m_tangle_mixed
from monotangle.tangle import (
    TangleValue,
    _fold,
    _hierarchy,
    _one_tangle_raw,
    _pure_m_tangle_amps,
    _state_hierarchy,
    concurrence_2q,
    mixed_tangle_term,
    n_tangle_pure,
    one_tangle,
    pure_functional_2q,
    pure_three_tangle,
    two_tangle,
)
from monotangle.wclass import wclass_random, wclass_state
from .conftest import ckw_three_tangle, members, permute_qubits

CFG = RoofConfig(seed=11, restarts=4, max_sweeps=60)


class TestOneTangle:
    def test_product_state_zero(self):
        state = ket_from_basis_terms(3, [("000", 1)])
        assert one_tangle(state, 1).value == 0.0

    def test_product_round_off_below_zero_reads_zero(self):
        # kron(a, b) has one-tangle 0; round-off leaves about a third of the
        # raw determinants just below zero, and those must read exactly 0.0
        below = 0
        for seed in range(2000):
            amps = np.kron(haar_random_state(1, seed).amplitudes,
                           haar_random_state(2, 10_000 + seed).amplitudes)
            raw = _one_tangle_raw(amps, 3, 1)
            assert abs(raw) < 1e-14
            if raw < 0.0:
                below += 1
                assert one_tangle(StateVector(3, amps), 1).value == 0.0
        assert below > 0

    def test_ghz_is_maximal(self, ghz3):
        assert one_tangle(ghz3, 1).value == pytest.approx(1.0, abs=1e-12)

    def test_w_state(self, w3):
        assert one_tangle(w3, 1).value == pytest.approx(8 / 9, abs=1e-12)

    def test_focus_out_of_range(self, w3):
        with pytest.raises(InputError):
            one_tangle(w3, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_under_partner_permutation(self, seed):
        rng = np.random.default_rng(seed)
        state = haar_random_state(4, 300 + seed)
        perm = [1] + (1 + rng.permutation([1, 2, 3])).tolist()
        permuted = permute_qubits(state, perm)
        assert one_tangle(state, 1).value == pytest.approx(
            one_tangle(permuted, 1).value, abs=1e-12
        )


class TestConcurrence:
    def test_bell_projector(self, bell_state):
        assert concurrence_2q(density_from_pure(bell_state)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_classical_mixture_zero(self):
        rho = DensityOperator((1, 2), np.diag([0.5, 0, 0, 0.5]).astype(complex))
        assert concurrence_2q(rho) == 0.0

    def test_w_state_pair(self, w3):
        rho = reduce_pure_state(w3, (1, 2))
        assert concurrence_2q(rho) == pytest.approx(2 / 3, abs=1e-12)

    def test_wrong_dimension(self, w3):
        with pytest.raises(InputError):
            concurrence_2q(reduce_pure_state(w3, (1,)))

    @pytest.mark.parametrize("seed", range(8))
    def test_never_negative(self, seed):
        from .conftest import random_mixed_2q

        assert concurrence_2q(random_mixed_2q(seed)) >= 0.0

    def test_matches_textbook_spin_flip(self):
        # Wootters' recipe written out with sy (x) sy matrix products, a
        # 1e-14 eigenvalue floor and a sort; ranks 1-4.  The recipe takes
        # square roots of round-off eigenvalues, so it is a looser reference
        # than the Bell-diagonal states below (largest gap seen: 2.4e-13)
        from .conftest import random_mixed_2q

        sy = np.array([[0, -1j], [1j, 0]])
        yy = np.kron(sy, sy)
        for seed in range(2000):
            rho = random_mixed_2q(seed)
            mat = rho.matrix
            ev = np.linalg.eigvals(mat @ (yy @ mat.conj() @ yy)).real
            ev[ev < 1e-14] = 0.0
            lam = np.sort(np.sqrt(ev))[::-1]
            expected = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
            assert abs(concurrence_2q(rho) - expected) <= 1e-12, seed

    def test_exact_on_locally_rotated_bell_diagonal_states(self):
        # sum_k p_k |B_k><B_k| under a local unitary has the exact
        # concurrence max(0, 2 p_max - 1): Dirichlet weights, and two Bell
        # weights (1 - eps, eps) with eps down to 10^-9.5, where a square
        # root of the spin-flip eigenvalues loses half the digits
        rng = np.random.default_rng(2245)
        s = 2 ** -0.5
        bell = np.array([[s, 0, 0, s], [s, 0, 0, -s],
                         [0, s, s, 0], [0, s, -s, 0]], dtype=complex)
        for k in range(400):
            if k % 2:
                eps = 10.0 ** rng.uniform(-9.5, -5.0)
                weights = np.zeros(4)
                weights[rng.permutation(4)[:2]] = (1.0 - eps, eps)
            else:
                weights = rng.dirichlet(np.ones(4))
            u = np.kron(_random_unitary(2, rng), _random_unitary(2, rng))
            rows = u @ (np.sqrt(weights)[:, None] * bell).T
            rho = DensityOperator((1, 2), rows @ rows.conj().T)
            exact = max(0.0, 2.0 * weights.max() - 1.0)
            assert abs(concurrence_2q(rho) - exact) <= 1e-14, k


class TestTwoTangle:
    def test_bell_is_one(self, bell_state):
        assert two_tangle(density_from_pure(bell_state)).value == pytest.approx(
            1.0, abs=1e-12
        )

    def test_product_pure_zero(self):
        rho = density_from_pure(ket_from_basis_terms(2, [("01", 1)]))
        assert two_tangle(rho).value == 0.0

    def test_w_reduction(self, w3):
        rho = reduce_pure_state(w3, (1, 2))
        assert two_tangle(rho).value == pytest.approx(4 / 9, abs=1e-12)

    def test_is_squared_concurrence_exactly(self):
        from .conftest import random_mixed_2q

        for seed in range(5):
            rho = random_mixed_2q(50 + seed)
            c = concurrence_2q(rho)
            assert two_tangle(rho).value == c * c

    @pytest.mark.parametrize("seed", range(5))
    def test_pure_state_matches_bipartite_tangle(self, seed):
        state = haar_random_state(2, 400 + seed)
        assert two_tangle(density_from_pure(state)).value == pytest.approx(
            one_tangle(state, 1).value, abs=1e-10
        )


class TestPureTangleBipartite:
    def test_schmidt_form(self):
        t = 0.25
        state = ket_from_basis_terms(
            2, [("00", np.sqrt(1 - t)), ("11", np.sqrt(t))]
        )
        assert one_tangle(state, 1).value == pytest.approx(
            4 * t * (1 - t), abs=1e-12
        )

    def test_single_excitation_pair(self):
        # vacuum-weighted pair: 4 |b1|^2 |b2|^2 with b1 = b2 = 1/2
        state = ket_from_basis_terms(
            2, [("00", 2 ** -0.5), ("10", 0.5), ("01", 0.5)]
        )
        assert one_tangle(state, 1).value == pytest.approx(
            0.25, abs=1e-12
        )

    def test_product_state_zero(self):
        state = ket_from_basis_terms(3, [("011", 1)])
        assert one_tangle(state, 1).value == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_leaf_functional_agrees(self, seed):
        state = haar_random_state(2, 500 + seed)
        amps = state.amplitudes
        assert pure_functional_2q(amps) == pytest.approx(
            one_tangle(state, 1).value, abs=1e-12
        )
        d, poly = pure_functional_2q.polynomial
        assert 2.0 * abs(poly(amps)) ** (2.0 / d) == pytest.approx(
            np.sqrt(pure_functional_2q(amps)), abs=1e-12
        )


class TestNTanglePure:
    def test_bell_reduces_to_two_tangle(self, bell_state):
        result = n_tangle_pure(bell_state, 1, CFG)
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.level == 2

    def test_ghz_three_tangle(self, ghz3):
        assert n_tangle_pure(ghz3, 1, CFG).value == pytest.approx(
            1.0, abs=1e-9
        )

    def test_w_three_tangle_vanishes(self, w3):
        assert abs(n_tangle_pure(w3, 1, CFG).value) <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_term_by_term_oracle(self, seed):
        # three-tangle assembled independently from reductions + concurrence
        state = haar_random_state(3, 600 + seed)
        rho = density_from_pure(state)
        expected = one_tangle(state, 1).value
        for j in (2, 3):
            expected -= concurrence_2q(partial_trace(rho, (1, j))) ** 2
        assert n_tangle_pure(state, 1, CFG).value == pytest.approx(
            expected, abs=1e-9
        )

    def test_exact_on_level3_roof_members(self):
        # roof searches drive members towards zero three-tangle, where the
        # level-2 terms of the recursion must not lose accuracy
        cfg = RoofConfig(seed=3, restarts=2, max_sweeps=20)
        for seed in range(4):
            state = haar_random_state(4, 900 + seed)
            for partners in ((2, 3), (2, 4), (3, 4)):
                rho = reduce_pure_state(state, (1,) + partners)
                result = m_tangle_mixed(rho, 1, partners, pure_three_tangle,
                                        cfg)
                rows = result.best_rows
                assert np.max(np.abs(rows.T @ rows.conj() - rho.matrix)) <= 1e-12
                for _, amps in members(rows):
                    exact = ckw_three_tangle(amps)
                    member = StateVector(3, amps)
                    for hub in (1, 2, 3):
                        assert n_tangle_pure(member, hub, CFG).value == (
                            pytest.approx(exact, abs=1e-12)
                        ), (seed, partners, hub)


class TestPureMTangleLeaf:
    """The m >= 4 leaf subtracts max(0, value)^(m/2) >= 0 for each of its
    m >= 3 terms from the member's CKW residual, so it never exceeds it."""

    @staticmethod
    def leaf_and_ckw(state, hub, config):
        amps, m = state.amplitudes, state.num_qubits
        leaf = _pure_m_tangle_amps(amps, m, hub, config, set())
        return leaf, _fold(*_hierarchy(amps, m, hub, None, top=2))

    def test_four_qubit_members_at_every_hub(self):
        for seed in range(50):
            state = haar_random_state(4, seed)
            for hub in (1, 2, 3, 4):
                leaf, ckw = self.leaf_and_ckw(state, hub, RoofConfig())
                assert leaf <= ckw, (seed, hub)

    def test_five_qubit_members_lie_far_below(self):
        # the inner level-3 and level-4 roofs are upper bounds, so their
        # powers can outweigh the whole CKW residual (leaves of about -3.0,
        # -1.6 and -2.2 against residuals of about 0.97, 0.88 and 0.87)
        cfg = RoofConfig(restarts=1, max_sweeps=0)
        for seed in range(3):
            leaf, ckw = self.leaf_and_ckw(haar_random_state(5, seed), 1, cfg)
            assert leaf < -1.0 < 0.8 < ckw, seed

    def test_wclass_member_saturates(self):
        # every m >= 3 term of a W-class state vanishes
        state = wclass_state(wclass_random(5, 3))
        leaf, ckw = self.leaf_and_ckw(state, 1,
                                      RoofConfig(restarts=1, max_sweeps=0))
        assert leaf <= ckw
        assert leaf == pytest.approx(ckw, abs=1e-12)


def assert_same_record(term, single):
    """Two term records agree bit for bit."""
    assert (term.partners, term.m) == (single.partners, single.m)
    assert term.value == single.value
    assert term.method == single.method
    assert term.min_pure_tangle_seen == single.min_pure_tangle_seen
    assert term.converged == single.converged
    assert (term.roof is None) == (single.roof is None)
    if term.roof is not None:
        assert np.array_equal(term.roof.best_rows, single.roof.best_rows)


class TestLevelBatch:
    """The level-3 roofs of a hierarchy level are solved in one batch; each
    record must be the one its partner subset gets alone, in level order."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_haar_terms_equal_single_terms(self, seed):
        cfg = RoofConfig(restarts=2, max_sweeps=1)
        state = haar_random_state(4, seed)
        for hub in range(1, 5):
            _, terms = _state_hierarchy(state, hub, cfg)
            assert [t.method for t in terms if t.m == 3] == ["rank2_lp"] * 3
            for term in terms:
                assert_same_record(
                    term, mixed_tangle_term(state, hub, term.partners, cfg))

    def test_product_level_mixes_every_route(self):
        # phi(1, 2, 3) x chi(4, 5), hub 1: within level 3, (2, 3) is pure
        # and ends at the linear program's start, (4, 5) has rank 2 and
        # members of zero tangle, a certified zero at the start, and the
        # four mixed subsets have rank 4 and run the HJW search
        state = StateVector(5, np.kron(haar_random_state(3, 1).amplitudes,
                                       haar_random_state(2, 2).amplitudes))
        cfg = RoofConfig(restarts=1, max_sweeps=0)
        _, terms = _state_hierarchy(state, 1, cfg)
        assert [t.partners for t in terms] == [
            partners for m in (2, 3, 4)
            for partners in combinations((2, 3, 4, 5), m - 1)]
        routes = {t.partners: (t.method, len(t.roof.best_rows))
                  for t in terms if t.m == 3}
        assert routes.pop((2, 3)) == ("rank2_lp", 1)
        assert routes.pop((4, 5)) == ("rank2_lp", 2)
        assert {method for method, _ in routes.values()} == {"roof"}
        for term in terms:
            assert_same_record(
                term, mixed_tangle_term(state, 1, term.partners, cfg))


    @pytest.mark.parametrize("hub", [1, 4])
    def test_wclass6_terms_equal_single_terms(self, hub):
        # n = 6 reaches m = 5: closed forms, level-3 linear programs, and
        # the nested-leaf search at m = 4 and 5
        cfg = RoofConfig()
        state = wclass_state(wclass_random(6, 3))
        _, terms = _state_hierarchy(state, hub, cfg)
        assert {(t.m, t.method) for t in terms} == {
            (2, "closed_form"), (3, "rank2_lp"), (4, "roof"), (5, "roof")}
        for term in terms:
            assert_same_record(
                term, mixed_tangle_term(state, hub, term.partners, cfg))


class TestPureThreeTangle:
    def test_matches_recursion_for_every_hub(self):
        # 4 |Det| against tau_1 - C_12^2 - C_13^2 through the hierarchy
        for seed in range(200):
            state = haar_random_state(3, seed)
            leaf = pure_three_tangle(state.amplitudes)
            assert leaf == pytest.approx(
                ckw_three_tangle(state.amplitudes), abs=1e-14)
            for hub in (1, 2, 3):
                assert leaf == pytest.approx(
                    n_tangle_pure(state, hub, CFG).value, abs=1e-12
                ), (seed, hub)

    def test_ghz_is_one(self, ghz3):
        assert pure_three_tangle(ghz3.amplitudes) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_w_is_exactly_zero(self, w3):
        assert pure_three_tangle(w3.amplitudes) == 0.0


class TestValueTypes:
    def test_level_range_validated(self):
        with pytest.raises(InputError):
            TangleValue(1.5, level=2)
        with pytest.raises(InputError):
            TangleValue(-0.5, level=1)
        TangleValue(-0.5, level=3)  # higher levels may be negative
