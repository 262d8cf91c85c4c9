import numpy as np
import pytest
from numpy.testing import assert_allclose

from monotangle.qstate import InputError, reduce_pure_state
from monotangle.tangle import one_tangle, two_tangle
from monotangle.wclass import (
    WClassParams,
    params_from_dict,
    params_to_dict,
    w_state_params,
    wclass_one_tangle,
    wclass_random,
    wclass_reduction,
    wclass_state,
    wclass_two_tangle,
)

from .conftest import NORM_BOUNDARY_EXCESSES, traced_peak_mb


class TestWClassState:
    def test_w_state_amplitudes(self):
        state = wclass_state(w_state_params(3))
        expected = np.zeros(8, dtype=complex)
        expected[0b100] = expected[0b010] = expected[0b001] = 1 / np.sqrt(3)
        assert_allclose(state.amplitudes, expected)

    def test_two_qubit_example(self):
        params = WClassParams(2 ** -0.5, np.array([0.5, 0.5]))
        state = wclass_state(params)
        assert_allclose(state.amplitudes, [2 ** -0.5, 0.5, 0.5, 0.0])

    def test_single_term_is_product_state(self):
        params = WClassParams(0.6, np.array([0.8, 0.0, 0.0]))
        state = wclass_state(params)
        assert one_tangle(state, 1).value == pytest.approx(0.0, abs=1e-12)

    def test_support_is_single_excitation_sector(self):
        params = wclass_random(5, 3)
        state = wclass_state(params)
        for idx in range(32):
            if bin(idx).count("1") > 1:
                assert state.amplitudes[idx] == 0

    def test_non_normalized_rejected(self):
        with pytest.raises(InputError):
            WClassParams(0.9, np.array([0.9, 0.9]))

    def test_too_many_qubits_rejected(self):
        with pytest.raises(InputError):
            wclass_state(WClassParams(0.0, np.full(64, 0.125)))


class TestNormBoundary:
    def test_accepted_coefficients_build_a_state(self):
        # at the parent WClassParams summed |a|^2 + sum |b|^2 against its
        # own tolerance: 132 of the 1539 sets here that it accepted then
        # failed wclass_state
        accepted = 0
        for n in (3, 4, 5, 6):
            for seed in range(50):
                base = wclass_random(n, seed)
                for excess in NORM_BOUNDARY_EXCESSES:
                    scale = np.sqrt(1.0 + excess)
                    try:
                        params = WClassParams(base.a * scale, base.b * scale)
                    except InputError:
                        continue
                    wclass_state(params)
                    accepted += 1
        assert accepted  # the check is not vacuous


class TestWClassRandom:
    def test_deterministic(self):
        a = wclass_random(3, 555)
        b = wclass_random(3, 555)
        assert a.a == b.a
        assert np.array_equal(a.b, b.b)

    def test_normalized(self):
        for seed in range(10):
            params = wclass_random(4, seed)
            total = abs(params.a) ** 2 + np.sum(np.abs(params.b) ** 2)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_uniform_simplex_mean(self):
        # uniform simplex on 4 coordinates has mean 1/4 per coordinate
        mean = np.mean([abs(wclass_random(3, s).a) ** 2 for s in range(10000)])
        assert mean == pytest.approx(0.25, abs=0.02)

    def test_small_n_rejected(self):
        with pytest.raises(InputError):
            wclass_random(1, 0)

    @pytest.mark.parametrize("build", [lambda: wclass_random(10**6, 0),
                                       lambda: w_state_params(10**6)],
                             ids=["wclass_random", "w_state_params"])
    def test_qubit_count_checked_before_allocation(self, build):
        def rejected():
            with pytest.raises(InputError, match="num_qubits must be in"):
                build()

        assert traced_peak_mb(rejected) < 1.0


class TestClosedForms:
    def test_w3_one_tangle(self):
        assert wclass_one_tangle(w_state_params(3)).value == pytest.approx(
            8 / 9, abs=1e-15
        )

    def test_w4_one_tangle(self):
        assert wclass_one_tangle(w_state_params(4)).value == pytest.approx(
            3 / 4, abs=1e-15
        )

    def test_w3_two_tangle(self):
        assert wclass_two_tangle(w_state_params(3), 2).value == pytest.approx(
            4 / 9, abs=1e-15
        )

    def test_w4_two_tangle(self):
        assert wclass_two_tangle(w_state_params(4), 3).value == pytest.approx(
            1 / 4, abs=1e-15
        )

    def test_vanishing_hub_coefficient(self):
        params = WClassParams(0.6, np.array([0.0, 0.8, 0.0]))
        assert wclass_one_tangle(params).value == 0.0
        assert wclass_two_tangle(params, 2).value == 0.0

    def test_pair_label_out_of_range(self):
        with pytest.raises(InputError):
            wclass_two_tangle(w_state_params(3), 4)
        with pytest.raises(InputError):
            wclass_two_tangle(w_state_params(3), 1)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_closed_forms_match_numerics(self, n):
        for seed in range(25):
            params = wclass_random(n, 1000 * n + seed)
            state = wclass_state(params)
            assert wclass_one_tangle(params).value == pytest.approx(
                one_tangle(state, 1).value, abs=1e-10
            )
            for j in range(2, n + 1):
                numeric = two_tangle(reduce_pure_state(state, (1, j))).value
                assert wclass_two_tangle(params, j).value == pytest.approx(
                    numeric, abs=1e-9
                )


class TestWClassReduction:
    def reconstruction(self, red):
        x = red.x_state.amplitudes
        mat = red.p * np.outer(x, x.conj())
        mat[0, 0] += red.q
        return mat

    def test_w3_pair_reduction(self, w3):
        red = wclass_reduction(w_state_params(3), (1, 2))
        true = reduce_pure_state(w3, (1, 2))
        assert red.p + red.q == pytest.approx(1.0, abs=1e-10)
        assert_allclose(self.reconstruction(red), true.matrix, atol=1e-9)
        evals = np.linalg.eigvalsh(true.matrix)
        assert evals[-3] <= 1e-10

    def test_nothing_traced_carries_weight(self):
        params = WClassParams(0.6, np.array([0.8, 0.0, 0.0, 0.0]))
        red = wclass_reduction(params, (1, 2, 3))
        assert red.q == 0.0
        assert red.p == pytest.approx(1.0, abs=1e-12)

    def test_five_qubit_reduction(self):
        params = wclass_random(5, 202)
        state = wclass_state(params)
        red = wclass_reduction(params, (1, 3, 4))
        true = reduce_pure_state(state, (1, 3, 4))
        assert_allclose(self.reconstruction(red), true.matrix, atol=1e-9)

    def test_x_state_is_single_excitation_class(self):
        params = wclass_random(6, 77)
        red = wclass_reduction(params, (1, 2, 5))
        for idx, amp in enumerate(red.x_state.amplitudes):
            if bin(idx).count("1") > 1:
                assert amp == 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_rank_at_most_two(self, n):
        rng = np.random.default_rng(n)
        params = wclass_random(n, 500 + n)
        state = wclass_state(params)
        size = int(rng.integers(2, n))
        keep = (1,) + tuple(
            sorted(rng.choice(np.arange(2, n + 1), size=size - 1,
                              replace=False).tolist())
        )
        true = reduce_pure_state(state, keep)
        evals = np.linalg.eigvalsh(true.matrix)
        assert evals[-3] <= 1e-10
        red = wclass_reduction(params, keep)
        assert_allclose(self.reconstruction(red), true.matrix, atol=1e-9)

    def test_hub_required(self):
        with pytest.raises(InputError):
            wclass_reduction(w_state_params(4), (2, 3))

    def test_size_limits(self):
        with pytest.raises(InputError):
            wclass_reduction(w_state_params(4), (1,))
        with pytest.raises(InputError):
            wclass_reduction(w_state_params(4), (1, 2, 3, 4))

    def test_vacuum_only_reduction(self):
        # hub and kept coefficients all vanish: reduction is the vacuum
        params = WClassParams(0.0, np.array([0.0, 0.0, 0.6, 0.8]))
        red = wclass_reduction(params, (1, 2))
        assert red.p == 0.0
        assert red.q == pytest.approx(1.0, abs=1e-12)
        state = wclass_state(params)
        true = reduce_pure_state(state, (1, 2))
        assert_allclose(self.reconstruction(red), true.matrix, atol=1e-9)


class TestParamsSerialization:
    def test_round_trip(self):
        params = wclass_random(4, 88)
        again = params_from_dict(params_to_dict(params))
        assert again.a == pytest.approx(params.a)
        assert_allclose(again.b, params.b)

    def test_malformed(self):
        with pytest.raises(InputError):
            params_from_dict({"a": [1.0], "b": []})
        # each entry is exactly two numbers, never read loosely by complex()
        b = [[0.6, 0], [0.8, 0]]
        for record in ({"a": [0, 0, 9], "b": b},
                       {"a": [True, 0], "b": b},
                       {"a": [0, 0], "b": [[0.6, False], [0.8, 0]]},
                       {"a": [0, 0], "b": [["0.6", 0], [0.8, 0]]},
                       # two numbers, but the first holds no float
                       {"a": [10 ** 399, 0], "b": b}):
            with pytest.raises(InputError, match="malformed W-class"):
                params_from_dict(record)
        assert params_from_dict({"a": [0, 0], "b": b}).b[1] == pytest.approx(0.8)
