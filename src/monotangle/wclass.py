"""Generalized W-class states and their closed-form tangle structure.

A generalized W-class state on n qubits is the superposition of the vacuum
and all single-excitation basis kets,

    a |00...0> + b_1 |10...0> + b_2 |01...0> + ... + b_n |00...1>,

with |a|^2 + sum_j |b_j|^2 = 1.  The n-qubit W state is the special case
a = 0, b_j = 1/sqrt(n).  For these states the one-tangle with hub qubit 1
is 4 |b_1|^2 sum_{j>=2} |b_j|^2, each pair two-tangle is 4 |b_1|^2 |b_j|^2,
and any hub-containing reduction is a rank <= 2 mixture of a smaller
W-class state and the vacuum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import (
    InputError,
    QubitSubset,
    StateVector,
    as_subset,
    check_labels_in_range,
    check_num_qubits,
    complex_from_json,
)
from .tangle import TangleValue


@dataclass(frozen=True, eq=False)
class WClassParams:
    """Coefficients (a, b_1 ... b_n) with unit total weight.

    Accepted exactly when the state they build is (:func:`wclass_state`
    raises otherwise), so that the two never disagree at the boundary.
    """

    a: complex
    b: np.ndarray

    def __post_init__(self):
        b = np.array(self.b, dtype=np.complex128)
        if b.ndim != 1 or len(b) < 2:
            raise InputError("b must be a vector of length n >= 2")
        check_num_qubits(len(b))
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", b)
        wclass_state(self)

    @property
    def num_qubits(self) -> int:
        return len(self.b)


@dataclass(frozen=True, eq=False)
class WClassReduction:
    """Hub-containing reduction as the mixture p |x><x| + q |vac><vac|."""

    p: float
    x_state: StateVector
    q: float
    labels: QubitSubset


def w_state_params(n: int) -> WClassParams:
    """Coefficients of the n-qubit W state: a = 0, b_j = 1/sqrt(n)."""
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    check_num_qubits(n)
    return WClassParams(0.0, np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128))


def wclass_state(params: WClassParams) -> StateVector:
    """State vector of the generalized W-class state for `params`.

    Amplitudes are nonzero only on Hamming-weight <= 1 indices: the vacuum
    carries a, and the single excitation on qubit j carries b_j.
    """
    n = params.num_qubits
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = params.a
    for j in range(1, n + 1):
        amps[1 << (n - j)] = params.b[j - 1]
    return StateVector(n, amps)


def wclass_random(n: int, seed: int) -> WClassParams:
    """Random W-class coefficients, deterministic per seed.

    Squared magnitudes (|a|^2, |b_1|^2, ..., |b_n|^2) are uniform on the
    (n+1)-coordinate probability simplex; phases are independent and
    uniform on [0, 2 pi).
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    check_num_qubits(n)
    if seed < 0:
        raise InputError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n + 1))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n + 1))
    a = np.sqrt(weights[0]) * phases[0]
    b = np.sqrt(weights[1:]) * phases[1:]
    return WClassParams(a, b)


def wclass_one_tangle(params: WClassParams) -> TangleValue:
    """Closed-form one-tangle with hub 1: 4 |b_1|^2 sum_{j>=2} |b_j|^2."""
    mags = np.abs(params.b) ** 2
    return TangleValue(float(4.0 * mags[0] * np.sum(mags[1:])), level=1)


def wclass_two_tangle(params: WClassParams, j: int) -> TangleValue:
    """Closed-form two-tangle of the (1, j) pair reduction: 4 |b_1|^2 |b_j|^2."""
    if not 2 <= j <= params.num_qubits:
        raise InputError(
            f"pair label j must be in [2, {params.num_qubits}], got {j}"
        )
    mags = np.abs(params.b) ** 2
    return TangleValue(float(4.0 * mags[0] * mags[j - 1]), level=2)


def wclass_reduction(params: WClassParams, keep) -> WClassReduction:
    """Structural form of the reduction onto a hub-containing subset.

    Tracing a W-class state onto labels `keep` (which must contain qubit 1)
    yields p |x><x| + q |vac><vac| where x is itself a W-class state built
    from (a, b_1, and the kept b_j) and q collects the squared magnitudes
    of the traced-out excitations.
    """
    keep = as_subset(keep)
    n = params.num_qubits
    check_labels_in_range(keep, n)
    if 1 not in keep.labels:
        raise InputError("reduction must keep the hub qubit 1")
    m = len(keep)
    if not 2 <= m <= n - 1:
        raise InputError(
            f"reduction size must be in [2, {n - 1}], got {m}"
        )
    x_tilde = np.zeros(1 << m, dtype=np.complex128)
    x_tilde[0] = params.a
    for t, label in enumerate(keep.labels):
        x_tilde[1 << (m - 1 - t)] = params.b[label - 1]
    kept = set(keep.labels)
    q = float(sum(abs(params.b[k - 1]) ** 2 for k in range(2, n + 1)
                  if k not in kept))
    p = float(np.vdot(x_tilde, x_tilde).real)
    if p > 1e-15:
        x_state = StateVector(m, x_tilde / np.sqrt(p))
    else:
        # reduction is exactly the vacuum projector; keep a placeholder member
        vac = np.zeros(1 << m, dtype=np.complex128)
        vac[0] = 1.0
        p = 0.0
        x_state = StateVector(m, vac)
    return WClassReduction(p=p, x_state=x_state, q=q, labels=keep)


# ---------------------------------------------------------------------------
# JSON serialization


def params_to_dict(params: WClassParams) -> dict:
    return {
        "a": [float(params.a.real), float(params.a.imag)],
        "b": [[float(z.real), float(z.imag)] for z in params.b],
    }


def params_from_dict(data: dict) -> WClassParams:
    """Read coefficients {"a": [re, im], "b": [[re, im], ...]}: every entry
    exactly two numbers (no booleans); keys beyond the two are ignored."""
    try:
        a = complex_from_json(data["a"])
        b = np.array([complex_from_json(pair) for pair in data["b"]],
                     dtype=np.complex128)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed W-class coefficient record: {exc}") from exc
    return WClassParams(a, b)
