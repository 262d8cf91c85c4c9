"""Tangle functionals: one-tangle, two-qubit tangle, and the recursive n-tangle.

The one-tangle of a pure state is 4 det of the focus qubit's reduced
density matrix.  The two-tangle of a two-qubit mixed state is the squared
concurrence, the closed form of its convex roof, which one function,
:func:`_concurrence_matrix`, computes from the tau matrix of a factor of
the state.  The n-tangle of a pure state subtracts, from the one-tangle,
every mixed m-tangle of the focus-containing reductions raised to the
power m/2, for m = 2 ... n-1.

That (level, subset) hierarchy is written once, on raw amplitudes:
:func:`_hierarchy` lists the terms, as :class:`TermRecord` records, and
:func:`_term` evaluates one of them -- the concurrence closed form for
m = 2, a convex roof delegated to :mod:`monotangle.roof` for m >= 3.
The roof's members are evaluated by the Cayley-hyperdeterminant leaf
:func:`pure_three_tangle` for m = 3 and by :func:`_pure_m_tangle_amps`,
itself a fold over :func:`_hierarchy`, for m >= 4.
:func:`n_tangle_pure`, :func:`mixed_tangle_term` and the residuals in
:mod:`monotangle.monogamy` are folds over the same two functions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .qstate import (
    DensityOperator,
    InputError,
    StateVector,
    _pure_factor,
    _reduced_from_pure,
    as_subset,
    check_labels_in_range,
)
from .roof import RoofResult, canonical_ensemble
from .roof import m_tangle_mixed as _roof_minimize

# sy x sy is antidiagonal with entries (-1, 1, 1, -1), so (sy x sy) v is
# these signs times v reversed; fixed convention for concurrence
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])

_VALUE_NOISE = 1e-10  # tangles may undershoot 0 / overshoot 1 by this much


@dataclass(frozen=True)
class TangleValue:
    """A tangle value together with its hierarchy level m."""

    value: float
    level: int
    converged: bool = True

    def __post_init__(self):
        if self.level < 1:
            raise InputError(f"level must be >= 1, got {self.level}")
        if self.level <= 2 and not -_VALUE_NOISE <= self.value <= 1.0 + _VALUE_NOISE:
            raise InputError(
                f"level-{self.level} tangle out of [0, 1]: {self.value!r}"
            )


def _check_focus(state: StateVector, focus: int) -> None:
    if not 1 <= focus <= state.num_qubits:
        raise InputError(
            f"focus {focus} out of range for {state.num_qubits} qubits"
        )


def _clamp_noise(value: float) -> float:
    if -_VALUE_NOISE <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + _VALUE_NOISE:
        return 1.0
    return value


def _one_tangle_raw(amps: np.ndarray, n: int, fpos: int) -> float:
    """4 det of the reduced state of position `fpos`, unclamped."""
    rho = _reduced_from_pure(amps, n, (fpos - 1,))
    return float(4.0 * (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real)


def one_tangle(state: StateVector, focus: int) -> TangleValue:
    """Bipartite tangle of `state` between the focus qubit and the rest.

    Equals 4 det of the focus qubit's reduced density matrix.
    """
    _check_focus(state, focus)
    raw = _one_tangle_raw(state.amplitudes, state.num_qubits, focus)
    return TangleValue(_clamp_noise(raw), level=1)


def _concurrence_matrix(f: np.ndarray) -> float:
    """Concurrence of the two-qubit state f f^dagger, from a 4-row factor f.

    C = max(0, l1 - l2 - l3 - l4), where the decreasing l_i are the
    singular values of the symmetric matrix f^T (sy x sy) f (Wootters'
    tau matrix).  Their squares are the eigenvalues of
    rho (sy x sy) rho* (sy x sy), but no square root of a round-off
    eigenvalue enters.  Any factor of rho gives the same value.
    """
    lam = np.linalg.svd(f.T @ (_YY_SIGNS[:, None] * f[::-1]), compute_uv=False)
    return max(0.0, float(lam[0] - lam[1:4].sum()))


def concurrence_2q(rho) -> float:
    """Concurrence of a two-qubit state (Wootters, PRL 80, 2245, 1998).

    Read from the factor whose columns are the eigen-rows of
    :func:`monotangle.roof.canonical_ensemble` -- the decomposition the
    roof search starts from, with weights at or below PROB_FLOOR dropped.
    """
    if rho.num_qubits != 2:
        raise InputError(
            f"concurrence needs a 2-qubit operator, got {rho.num_qubits} qubits"
        )
    return _concurrence_matrix(canonical_ensemble(rho).T)


def two_tangle(rho) -> TangleValue:
    """Two-tangle of a two-qubit mixed state: concurrence squared.

    This is the exact closed form of the convex roof; the numerical roof in
    :func:`monotangle.roof.m_tangle_mixed` must agree with it.
    """
    c = concurrence_2q(rho)
    return TangleValue(c * c, level=2)


def _two_qubit_det(amps: np.ndarray):
    """a00 a11 - a01 a10, vectorised over the last axis."""
    return amps[..., 0] * amps[..., 3] - amps[..., 1] * amps[..., 2]


def pure_functional_2q(amps: np.ndarray) -> float:
    """Level-2 roof leaf: tangle of a normalized two-qubit pure state.

    4 det rho_A = 4 |a00 a11 - a01 a10|^2, cheap enough for optimizer
    inner loops.
    """
    d = _two_qubit_det(amps)
    return 4.0 * (d.real * d.real + d.imag * d.imag)


def _cayley(amps: np.ndarray):
    """Cayley's hyperdeterminant of three-qubit amplitudes (last axis).

    With the 2x2 slices A0 = a[0jk] and A1 = a[1jk] of the first qubit,
    det(x A0 + y A1) = x^2 det A0 + x y b + y^2 det A1 is a binary
    quadratic form, and the hyperdeterminant is its discriminant.
    """
    a000, a001, a010, a011, a100, a101, a110, a111 = (
        amps[..., k] for k in range(8))
    b = a000 * a111 - a001 * a110 + a100 * a011 - a101 * a010
    return b * b - 4.0 * (a000 * a011 - a001 * a010) * (a100 * a111 - a101 * a110)


def pure_three_tangle(amps: np.ndarray) -> float:
    """Level-3 roof leaf: 4 |Det| of a normalized three-qubit pure state.

    Equals the recursive pure three-tangle tau_1 - C_12^2 - C_13^2 for
    every hub (Coffman, Kundu & Wootters, PRA 61, 052306, 2000), without
    the two concurrence terms, and is never negative.
    """
    return 4.0 * float(abs(_cayley(amps)))


# Both leaves are sqrt(tau(v)) = 2 |P(v)|^(2/d) for a homogeneous
# polynomial P of degree d; the roof optimizer uses (d, P) for closed-form
# contributions of unnormalized rows and pair-rotation profiles
pure_functional_2q.polynomial = (2, _two_qubit_det)
pure_three_tangle.polynomial = (4, _cayley)


@dataclass(frozen=True, eq=False)
class TermRecord:
    """One hierarchy term: the mixed m-tangle of the hub plus `partners`.

    The only term record: reports hold it as is, and :meth:`to_json_dict`
    is the term shape of every JSON report.
    """

    partners: tuple[int, ...]
    m: int
    value: float
    roof: RoofResult | None     # None for the m = 2 closed form

    @property
    def pow_value(self) -> float:
        """The term's share of the residual, max(0, value)^(m/2)."""
        return max(0.0, self.value) ** (self.m / 2)

    @property
    def method(self) -> str:
        """"closed_form", or the roof's route: "roof" or "rank2_lp"."""
        return "closed_form" if self.roof is None else self.roof.method

    @property
    def converged(self) -> bool:
        return self.roof is None or self.roof.converged

    @property
    def restarts_used(self) -> int | None:
        return None if self.roof is None else self.roof.restarts_used

    @property
    def min_pure_tangle_seen(self) -> float | None:
        return None if self.roof is None else self.roof.min_pure_tangle_seen

    def to_json_dict(self) -> dict:
        return {
            "partners": list(self.partners),
            "m": self.m,
            "value": self.value,
            "pow": self.pow_value,
            "method": self.method,
            "converged": self.converged,
            "restarts_used": self.restarts_used,
            "min_pure_tangle_seen": self.min_pure_tangle_seen,
        }


def _term(amps: np.ndarray, n: int, fpos: int, partners: tuple[int, ...],
          config) -> TermRecord:
    """Mixed m-tangle of the reduction of raw `amps` onto fpos plus partners.

    Returns the term's record.  For m = 2 the concurrence closed form,
    taken from the pure-state factor of the reduction, is exact and the
    record's roof is None.  For m >= 3 the roof entry point
    :func:`monotangle.roof.m_tangle_mixed` evaluates each decomposition
    member with a pure m-tangle leaf: the hyperdeterminant
    :func:`pure_three_tangle` for m = 3, and for m >= 4 the leaf that
    recurses through :func:`_hierarchy`, where non-convergence of any
    nested roof marks the returned result as not converged.  An m = 3
    reduction of rank <= 2 -- every level-3 term at n = 4, and every
    level-3 term inside an m = 4 leaf -- is solved there as a linear
    program (method "rank2_lp") unless its eigen-rows are a certified
    zero; the others run the HJW search under `config` (method "roof").
    """
    kept = tuple(sorted((fpos,) + partners))
    positions = tuple(p - 1 for p in kept)
    m = len(kept)
    if m == 2:
        value = _concurrence_matrix(_pure_factor(amps, n, positions)) ** 2
        return TermRecord(partners, m, value, None)
    rho = DensityOperator(kept, _reduced_from_pure(amps, n, positions))
    convergence_log: list[bool] = []
    member_fpos = kept.index(fpos) + 1

    def pure_functional(member: np.ndarray) -> float:
        return _pure_m_tangle_amps(member, m, member_fpos, config,
                                   convergence_log)

    leaf = pure_three_tangle if m == 3 else pure_functional
    result = _roof_minimize(rho, fpos, partners, leaf, config)
    if not all(convergence_log):
        result = dataclasses.replace(result, converged=False)
    return TermRecord(partners, m, result.value, result)


def _hierarchy(amps: np.ndarray, n: int, fpos: int, config,
               top: int | None = None):
    """Raw one-tangle and every hierarchy term of a pure n-qubit state.

    Terms run over m = 2 ... top (default n - 1), ordered by level and
    then lexicographically over the size-(m-1) partner subsets that
    exclude the hub; each subset is counted once.
    """
    others = tuple(p for p in range(1, n + 1) if p != fpos)
    terms = [_term(amps, n, fpos, partners, config)
             for m in range(2, (n - 1 if top is None else top) + 1)
             for partners in combinations(others, m - 1)]
    return _one_tangle_raw(amps, n, fpos), terms


def _fold(total: float, terms) -> float:
    """`total` minus max(0, value)^(m/2) of every term, in order."""
    for term in terms:
        total -= term.pow_value
    return total


def _state_hierarchy(state: StateVector, focus: int, config,
                     top: int | None = None):
    """Validated :func:`_hierarchy` of `state`: clamped one-tangle and terms."""
    _check_focus(state, focus)
    one, terms = _hierarchy(state.amplitudes, state.num_qubits, focus, config,
                            top)
    return _clamp_noise(one), terms


def _pure_m_tangle_amps(amps: np.ndarray, m: int, fpos: int, config,
                        convergence_log: list[bool]) -> float:
    """Roof leaf: recursive pure m-tangle of a raw normalized amplitude vector.

    Skips per-call object validation, which matters inside roof searches
    where members are evaluated many thousands of times.  The convergence
    flags of its own roof terms are appended to `convergence_log`.
    """
    one, terms = _hierarchy(amps, m, fpos, config)
    convergence_log.extend(t.converged for t in terms)
    return _fold(one, terms)


def mixed_tangle_term(state: StateVector, focus: int, partners,
                      config) -> TermRecord:
    """Mixed m-tangle of the reduction of `state` onto focus plus `partners`.

    Returns the term's record, with partners sorted; its roof is None for
    m = 2, where the concurrence closed form is exact and no search is
    needed.
    """
    _check_focus(state, focus)
    partners = as_subset(partners)
    if focus in partners.labels:
        raise InputError("focus must not appear among partners")
    if len(partners) + 1 >= state.num_qubits:
        raise InputError("reduction must be a proper subsystem")
    check_labels_in_range(partners, state.num_qubits)
    return _term(state.amplitudes, state.num_qubits, focus, partners.labels,
                 config)


def n_tangle_pure(state: StateVector, focus: int, config) -> TangleValue:
    """Recursive n-tangle of a pure state with hub `focus`.

    one_tangle minus sum over m = 2 ... n-1 and over all focus-anchored
    partner subsets of the mixed m-tangle to the power m/2.  Reduces to the
    two-tangle for n = 2 and the usual three-tangle for n = 3.  Each
    partner subset is counted once (Regula, Di Martino, Lee & Adesso,
    PRL 113, 110501, 2014).
    """
    one, terms = _state_hierarchy(state, focus, config)
    return TangleValue(_fold(one, terms), level=state.num_qubits,
                       converged=all(t.converged for t in terms))
