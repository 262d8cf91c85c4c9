"""Shared test helpers: independent oracles and random-state factories."""

from __future__ import annotations

import math

import numpy as np
import pytest

from monotangle.qstate import (
    NORM_TOL,
    PROB_FLOOR,
    TRACE_TOL,
    DensityOperator,
    StateVector,
)


def oracle_partial_trace(mat: np.ndarray, labels, keep_labels) -> np.ndarray:
    """Brute-force partial trace via bitstring bookkeeping.

    Deliberately dumb and independent of the package implementation:
    every matrix entry is visited, indices are decomposed as strings, and
    entries whose environment bits match on both sides are accumulated.
    """
    labels = list(labels)
    k = len(labels)
    keep_pos = [labels.index(l) for l in keep_labels]
    env_pos = [p for p in range(k) if p not in keep_pos]
    dim_keep = 2 ** len(keep_pos)
    out = np.zeros((dim_keep, dim_keep), dtype=np.complex128)
    for row in range(2 ** k):
        row_bits = format(row, f"0{k}b")
        for col in range(2 ** k):
            col_bits = format(col, f"0{k}b")
            if any(row_bits[p] != col_bits[p] for p in env_pos):
                continue
            i = int("".join(row_bits[p] for p in keep_pos) or "0", 2)
            j = int("".join(col_bits[p] for p in keep_pos) or "0", 2)
            out[i, j] += mat[row, col]
    return out


def permute_qubits(state: StateVector, perm) -> StateVector:
    """Relabel qubits: old label q moves to perm[q-1] (1-based targets)."""
    n = state.num_qubits
    out = np.zeros_like(state.amplitudes)
    for idx in range(state.dim):
        bits = format(idx, f"0{n}b")
        new_bits = [""] * n
        for old in range(n):
            new_bits[perm[old] - 1] = bits[old]
        out[int("".join(new_bits), 2)] = state.amplitudes[idx]
    return StateVector(n, out)


def ckw_three_tangle(amps: np.ndarray) -> float:
    """Pure three-tangle 4 |d1 - 2 d2 + 4 d3| in the expanded form of
    Coffman, Kundu & Wootters (PRA 61, 052306, 2000)."""
    a = amps.reshape(2, 2, 2)
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
          + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1])
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)


def members(rows: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(p, row / sqrt(p)) for every decomposition row with p >= PROB_FLOOR."""
    out = []
    for row in rows:
        p = float(np.vdot(row, row).real)
        if p >= PROB_FLOOR:
            out.append((p, row / math.sqrt(p)))
    return out


def random_mixed_2q(seed: int) -> DensityOperator:
    """Random-rank two-qubit mixed state (rank drawn uniformly from 1..4)."""
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, 5))
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return DensityOperator((1, 2), mat)


# squared-norm excesses just inside the acceptance and the trace tolerance,
# on both sides of unit norm
NORM_BOUNDARY_EXCESSES = tuple(
    sign * tol * (1.0 - 10.0 ** -k)
    for tol in (NORM_TOL, TRACE_TOL) for k in (5, 6, 7) for sign in (1.0, -1.0))


def scaled_state_record(amps: np.ndarray, excess: float) -> dict:
    """State-file record of `amps` scaled to <psi|psi> = 1 + excess."""
    amps = amps * math.sqrt(1.0 + excess)
    return {"num_qubits": len(amps).bit_length() - 1,
            "amplitudes": [[float(a.real), float(a.imag)] for a in amps]}


@pytest.fixture
def bell_state():
    from monotangle.qstate import ket_from_basis_terms

    return ket_from_basis_terms(2, [("00", 2 ** -0.5), ("11", 2 ** -0.5)])


@pytest.fixture
def ghz3():
    from monotangle.qstate import ket_from_basis_terms

    return ket_from_basis_terms(3, [("000", 2 ** -0.5), ("111", 2 ** -0.5)])


@pytest.fixture
def w3():
    from monotangle.wclass import w_state_params, wclass_state

    return wclass_state(w_state_params(3))
