import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from monotangle.qstate import (
    DensityOperator,
    InputError,
    InvalidStateError,
    QubitSubset,
    StateVector,
    _reduced_from_pure,
    as_subset,
    density_from_pure,
    haar_random_state,
    ket_from_basis_terms,
    load_state,
    partial_trace,
    reduce_pure_state,
    save_state,
    state_from_dict,
    state_to_dict,
)
from monotangle.monogamy import sm_residual
from monotangle.roof import RoofConfig

from .conftest import (
    NORM_BOUNDARY_EXCESSES,
    oracle_partial_trace,
    scaled_state_record,
)


class TestKetFromBasisTerms:
    def test_single_basis_ket(self):
        state = ket_from_basis_terms(2, [("00", 1)])
        assert_allclose(state.amplitudes, [1, 0, 0, 0])
        assert not state.renormalized

    def test_bell_state(self):
        state = ket_from_basis_terms(2, [("00", 2 ** -0.5), ("11", 2 ** -0.5)])
        assert_allclose(state.amplitudes, [2 ** -0.5, 0, 0, 2 ** -0.5])

    def test_single_excitation_superposition_placement(self):
        # vacuum plus one excitation per qubit; qubit 1 is the leftmost bit
        a, b1, b2, b3 = 0.5, 0.5j, -0.5, 0.5
        state = ket_from_basis_terms(
            3, [("000", a), ("100", b1), ("010", b2), ("001", b3)]
        )
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = a
        expected[0b100] = b1
        expected[0b010] = b2
        expected[0b001] = b3
        assert_allclose(state.amplitudes, expected)

    def test_renormalizes_and_flags(self):
        state = ket_from_basis_terms(1, [("0", 2.0)])
        assert state.renormalized
        assert_allclose(state.amplitudes, [1, 0])

    def test_zero_norm_rejected(self):
        with pytest.raises(InvalidStateError):
            ket_from_basis_terms(2, [("00", 0.0)])

    def test_bad_bitstring_length(self):
        with pytest.raises(InputError):
            ket_from_basis_terms(2, [("000", 1.0)])

    def test_duplicate_bitstring(self):
        with pytest.raises(InputError):
            ket_from_basis_terms(2, [("00", 0.5), ("00", 0.5)])


class TestStateVector:
    def test_not_normalized_rejected(self):
        with pytest.raises(InvalidStateError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidStateError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_too_many_qubits_rejected(self):
        with pytest.raises(InputError):
            StateVector(13, np.zeros(2 ** 13))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, bad):
        # every comparison with NaN is false, so the norm check alone passes it
        amps = np.array([1.0, 0.0], dtype=complex)
        amps[1] = bad
        with pytest.raises(InvalidStateError, match="finite"):
            StateVector(1, amps)


class TestDensityFromPure:
    def test_ground_state_projector(self):
        state = ket_from_basis_terms(1, [("0", 1)])
        rho = density_from_pure(state)
        assert_allclose(rho.matrix, [[1, 0], [0, 0]])

    def test_bell_projector_corners(self, bell_state):
        rho = density_from_pure(bell_state)
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_w_state_rank_one(self, w3):
        rho = density_from_pure(w3)
        evals = np.linalg.eigvalsh(rho.matrix)
        assert abs(np.trace(rho.matrix) - 1) < 1e-12
        assert evals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(evals[:-1] < 1e-12)


class TestDensityOperator:
    def test_non_hermitian_rejected(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InputError):
            from monotangle.qstate import DensityOperator

            DensityOperator((1,), mat)

    def test_bad_trace_rejected(self):
        from monotangle.qstate import DensityOperator

        with pytest.raises(InputError):
            DensityOperator((1,), np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        from monotangle.qstate import DensityOperator

        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InputError):
            DensityOperator((1,), mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN passed the Hermiticity and trace checks and broke eigvalsh
        with pytest.raises(InvalidStateError, match="finite"):
            DensityOperator((1, 2), np.full((4, 4), bad))
        mat = np.eye(4, dtype=complex) / 4
        mat[1, 1] = bad
        with pytest.raises(InvalidStateError, match="finite"):
            DensityOperator((1, 2), mat)


class TestPartialTrace:
    def test_product_state(self):
        rho = density_from_pure(ket_from_basis_terms(2, [("00", 1)]))
        reduced = partial_trace(rho, (1,))
        assert_allclose(reduced.matrix, [[1, 0], [0, 0]])

    def test_bell_reduction_maximally_mixed(self, bell_state):
        reduced = partial_trace(density_from_pure(bell_state), (1,))
        assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)

    def test_w_state_single_qubit(self, w3):
        reduced = partial_trace(density_from_pure(w3), (1,))
        assert_allclose(reduced.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-14)
        det = np.linalg.det(reduced.matrix).real
        assert 4 * det == pytest.approx(8 / 9, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        state = haar_random_state(n, 100 + seed)
        rho = density_from_pure(state)
        size = int(rng.integers(1, n))
        keep = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size,
                                       replace=False).tolist()))
        reduced = partial_trace(rho, keep)
        expected = oracle_partial_trace(rho.matrix, rho.qubit_labels, keep)
        assert_allclose(reduced.matrix, expected, atol=1e-12)
        fast = reduce_pure_state(state, keep)
        assert_allclose(fast.matrix, expected, atol=1e-12)
        # the same matrix on permuted, non-contiguous labels such as
        # (3, 1, 4), reduced onto every keep set
        labels = tuple(rng.permutation(np.arange(1, 2 * n + 1))[:n].tolist())
        relabeled = DensityOperator(labels, rho.matrix)
        for size in range(1, n + 1):
            for keep in combinations(sorted(labels), size):
                assert_allclose(
                    partial_trace(relabeled, keep).matrix,
                    oracle_partial_trace(rho.matrix, labels, keep),
                    atol=1e-12,
                )

    def test_raw_fast_path_matches_every_subset(self):
        # the tangle recursion reduces raw amplitudes without validation,
        # including keep = every qubit
        state = haar_random_state(4, 77)
        rho = density_from_pure(state)
        for size in range(1, 5):
            for keep in combinations((1, 2, 3, 4), size):
                raw = _reduced_from_pure(
                    state.amplitudes, 4, tuple(l - 1 for l in keep))
                assert_allclose(raw, partial_trace(rho, keep).matrix,
                                atol=1e-14)

    def test_keep_not_subset_rejected(self, bell_state):
        with pytest.raises(InputError):
            partial_trace(density_from_pure(bell_state), (3,))

    def test_empty_keep_rejected(self, bell_state):
        with pytest.raises(InputError):
            partial_trace(density_from_pure(bell_state), ())

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_reductions_of_an_operator_at_the_trace_edge(self, sign):
        # a reduced trace is the same sum as rho's in another order, so it
        # could land just outside TRACE_TOL where rho's was just inside
        accepted = 0
        for seed in range(300):
            amps = haar_random_state(3, seed).amplitudes
            mat = np.outer(amps, amps.conj())
            mat *= (1.0 + sign * 0.99999e-12) / np.trace(mat).real
            try:
                rho = DensityOperator((1, 2, 3), mat)
            except InputError:
                continue
            accepted += 1
            for size in (1, 2):
                for keep in combinations((1, 2, 3), size):
                    reduced = partial_trace(rho, keep)
                    assert abs(np.trace(reduced.matrix) - 1.0) <= 1e-15
        assert accepted > 0

    def test_keep_everything_is_identity(self, bell_state):
        rho = density_from_pure(bell_state)
        again = partial_trace(rho, (1, 2))
        assert_allclose(again.matrix, rho.matrix)


class TestPartialTraceProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 5))
    def test_trace_preserved(self, seed, n):
        state = haar_random_state(n, seed)
        rho = density_from_pure(state)
        keep = (1,) if n == 2 else tuple(range(1, n))
        reduced = partial_trace(rho, keep)
        assert abs(np.trace(reduced.matrix) - 1) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_chained_reduction_consistent(self, seed):
        state = haar_random_state(4, seed)
        rho = density_from_pure(state)
        via_mid = partial_trace(partial_trace(rho, (1, 2, 4)), (1, 4))
        direct = partial_trace(rho, (1, 4))
        assert_allclose(via_mid.matrix, direct.matrix, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_tensor_product_factorizes(self, seed):
        left = haar_random_state(2, seed)
        right = haar_random_state(2, seed + 1)
        product = StateVector(4, np.kron(left.amplitudes, right.amplitudes))
        reduced = partial_trace(density_from_pure(product), (1, 2))
        expected = np.outer(left.amplitudes, left.amplitudes.conj())
        assert_allclose(reduced.matrix, expected, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 5))
    def test_eigenvalues_physical(self, seed, n):
        state = haar_random_state(n, seed)
        reduced = reduce_pure_state(state, (1,))
        evals = np.linalg.eigvalsh(reduced.matrix)
        assert evals[0] >= -1e-10
        assert evals[-1] <= 1 + 1e-10


class TestQubitSubset:
    def test_sorts_input(self):
        assert as_subset([3, 1, 2]).labels == (1, 2, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(InputError):
            as_subset([1, 1])

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError):
            QubitSubset((0, 1))


class TestSerialization:
    def test_state_round_trip(self, tmp_path, w3):
        path = tmp_path / "w3.json"
        save_state(w3, path)
        loaded = load_state(path)
        assert loaded.num_qubits == 3
        assert_allclose(loaded.amplitudes, w3.amplitudes, atol=1e-15)

    def test_state_dict_round_trip(self):
        state = haar_random_state(3, 5)
        again = state_from_dict(state_to_dict(state))
        assert_allclose(again.amplitudes, state.amplitudes, atol=1e-15)

    def test_rounded_amplitudes_renormalized(self):
        state = haar_random_state(2, 9)
        record = state_to_dict(state)
        record["amplitudes"] = [
            [round(re, 6), round(im, 6)] for re, im in record["amplitudes"]
        ]
        loaded = state_from_dict(record)
        assert loaded.renormalized
        assert abs(np.vdot(loaded.amplitudes, loaded.amplitudes).real - 1) < 1e-12

    def test_malformed_state_dict(self):
        with pytest.raises(InputError):
            state_from_dict({"num_qubits": 2, "amplitudes": [[1, 0]]})
        with pytest.raises(InputError):
            state_from_dict({"amplitudes": []})

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_file_rejected(self, tmp_path, token):
        # Python's json reads these tokens as floats
        path = tmp_path / "bad.json"
        path.write_text('{"num_qubits": 1, "amplitudes": [[%s, 0], [1, 0]]}'
                        % token)
        with pytest.raises(InvalidStateError, match="finite"):
            load_state(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            load_state(path)

    def test_state_file_is_plain_json(self, tmp_path, w3):
        path = tmp_path / "w3.json"
        save_state(w3, path)
        data = json.loads(path.read_text())
        assert set(data) == {"num_qubits", "amplitudes"}


class TestHaarRandom:
    def test_deterministic(self):
        a = haar_random_state(3, 123)
        b = haar_random_state(3, 123)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("n", [64, -1])
    def test_out_of_range_qubit_count_rejected(self, n):
        # checked before numpy sees the size
        with pytest.raises(InputError):
            haar_random_state(n, 0)

    def test_normalized(self):
        state = haar_random_state(4, 7)
        assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1) < 1e-12


class TestNormBoundary:
    """A state the program accepted never fails a later trace check: the
    reductions' traces are its norm summed in another order, so the norm
    accepted without rescaling sits strictly inside TRACE_TOL."""

    def test_four_qubit_sm_residual(self):
        cfg = RoofConfig(restarts=2, max_sweeps=1)
        for seed in range(20):
            amps = haar_random_state(4, seed).amplitudes
            for excess in NORM_BOUNDARY_EXCESSES:
                state = state_from_dict(scaled_state_record(amps, excess))
                sm_residual(state, 1, cfg)

    def test_three_qubit_reductions(self):
        for seed in range(100):
            amps = haar_random_state(3, seed).amplitudes
            for excess in NORM_BOUNDARY_EXCESSES:
                state = state_from_dict(scaled_state_record(amps, excess))
                density_from_pure(state)
                for size in (1, 2):
                    for keep in combinations((1, 2, 3), size):
                        reduce_pure_state(state, keep)
