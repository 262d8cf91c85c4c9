"""Convex-roof minimization for mixed-state m-tangles.

The roof of a mixed state rho is [min over decompositions of
sum_h p_h sqrt(tau(psi_h))]^2.  A decomposition is one complex array of
rows, the scaled members sqrt(p_h) psi_h: p_h is the squared norm of row
h, and zero rows are members with p_h = 0.  By Hughston, Jozsa & Wootters
(Phys. Lett. A 183, 14, 1993) every size-R decomposition of rho is an
R x R unitary times the eigen-rows (:func:`canonical_ensemble`, padded with
zero rows; :func:`hjw_mix`), so the search space is the unitary group.
Each start mixes the eigen-rows once; from there the search state is the
rows themselves and their contributions, walked by successive two-row
Givens rotations with each angle refined by golden section, and the
result carries the best rows found.

Leaves whose square root is 2 |P|^(2/d) for a homogeneous polynomial P of
degree d -- the two-tangle (d = 2) and the Cayley-hyperdeterminant
three-tangle (d = 4) -- expose (d, P) as a `polynomial` attribute.  For
them a pair rotation is a binary form in (cos t, e^{i f} sin t) with
d + 1 coefficients, recovered by one FFT, which makes a dense angle scan
and the refinement profile cheap.  Other leaves (the recursive m >= 4
tangles) are evaluated member by member on a coarse grid.

The searched minimum is an upper bound on the true roof; it is exact for
the workloads the package certifies (two-qubit tangles against the
concurrence closed form, and reductions whose members all have zero
tangle, where the objective is identically zero).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qstate import PROB_FLOOR, DensityOperator, InputError, as_subset

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ANGLE_XTOL = 1e-4
# Rotation angle is pi-periodic; with both signs of theta explored, the
# phase only needs [0, pi).
_THETA_COARSE = tuple(k * math.pi / 8.0 for k in (-3, -2, -1, 1, 2, 3))
_PHI_COARSE = tuple(k * math.pi / 4.0 for k in range(4))
_THETA_HALF = math.pi / 8.0
_PHI_HALF = math.pi / 4.0
_UNITARITY_TOL = 1e-10

# dense (theta, phi) scan grid for the polynomial-leaf pair step
_SCAN_THETA = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 32, endpoint=False)
_SCAN_PHI = np.linspace(0.0, math.pi, 16, endpoint=False)

# A roof value certified at or below this is a zero: the objective is a sum
# of nonnegative contributions, so no decomposition can do better.
EARLY_STOP_VALUE = 1e-12

# Basin-hopping kicks per start: after the sweep loop stalls, a random pair
# rotation is applied and descent resumes; the best visited point wins.
_KICKS = 4


@dataclass(frozen=True)
class RoofConfig:
    """Search budget for the roof optimizer; fully determines the result.

    restarts counts starting points: index 0 refines the eigen-ensemble
    itself, the rest refine Haar-random mixings of it drawn from streams
    seeded by (seed, restart index).
    """

    seed: int = 0
    restarts: int = 32
    padding: int = 2
    max_sweeps: int = 500
    tol: float = 1e-10

    def __post_init__(self):
        if self.seed < 0:
            raise InputError("seed must be nonnegative")
        if self.restarts < 1:
            raise InputError("restarts must be >= 1")
        if self.padding < 0:
            raise InputError("padding must be >= 0")
        if self.max_sweeps < 0:
            raise InputError("max_sweeps must be >= 0")
        if self.tol <= 0:
            raise InputError("tol must be positive")

    def to_json_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "restarts": int(self.restarts),
            "padding": int(self.padding),
            "max_sweeps": int(self.max_sweeps),
            "tol": float(self.tol),
        }


@dataclass(frozen=True)
class RoofResult:
    """Outcome of one roof search.

    value:  the minimized [sum p_h sqrt(tau_h)]^2 over everything searched.
    best_rows: the best decomposition found, as scaled-member rows R
        with rho = R^T R* up to round-off.
    min_pure_tangle_seen: smallest raw pure tangle evaluated anywhere in
        the search, before clamping; significantly negative values are
        evidence worth surfacing, not errors.  Polynomial leaves (levels
        2 and 3) are moduli, so there it is never negative.
    """

    value: float
    best_rows: np.ndarray
    restarts_used: int
    converged: bool
    min_pure_tangle_seen: float


def canonical_ensemble(rho: DensityOperator) -> np.ndarray:
    """Eigen-decomposition of rho as the reference (HJW anchor) rows.

    Row h is sqrt(p_h) psi_h for the eigenpair (p_h, psi_h), ordered by
    decreasing p_h; eigenvalues at or below PROB_FLOOR are dropped.  The
    rows R satisfy rho = R^T R*.
    """
    evals, evecs = np.linalg.eigh(rho.matrix)
    return np.array([math.sqrt(evals[idx]) * evecs[:, idx]
                     for idx in range(len(evals) - 1, -1, -1)
                     if evals[idx] > PROB_FLOOR])


def hjw_mix(rows: np.ndarray, mixing: np.ndarray) -> np.ndarray:
    """Mix decomposition rows through an R x R unitary (R >= row count).

    The rows, zero-padded to R, are combined as phi_h = sum_l u_hl row_l.
    Every row is a member: row h has probability |phi_h|^2 (zero rows are
    members with p = 0), and the mixed rows reconstruct the same density
    operator.
    """
    mixing = np.asarray(mixing, dtype=np.complex128)
    if mixing.ndim != 2 or mixing.shape[0] != mixing.shape[1]:
        raise InputError(f"mixing must be square, got shape {mixing.shape}")
    r = mixing.shape[0]
    if r < len(rows):
        raise InputError(f"mixing size {r} smaller than row count {len(rows)}")
    if np.max(np.abs(mixing.conj().T @ mixing - np.eye(r))) > _UNITARITY_TOL:
        raise InputError("mixing matrix is not unitary within tolerance")
    padded = np.zeros((r, rows.shape[1]), dtype=np.complex128)
    padded[:len(rows)] = rows
    return mixing @ padded


def _random_unitary(r: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed r x r unitary via phase-fixed QR of a Ginibre matrix."""
    z = (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
    q, upper = np.linalg.qr(z)
    phases = np.diagonal(upper).copy()
    phases /= np.abs(phases)
    return q * phases


def _golden_min(f, lo: float, hi: float, xtol: float):
    """Golden-section minimum of f on [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = f(c)
    fd = f(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


class _Objective:
    """Decomposition objective sum_h p_h sqrt(max(0, tau_h)).

    When the pure functional exposes a `polynomial` attribute (d, P), with
    P homogeneous of degree d and sqrt(tau(v)) = 2 |P(v)|^(2/d) on
    normalized v, the contribution of an unnormalized row is
    2 |P(row)|^(2/d), and pair rotations admit a closed-form profile
    (:func:`_binary_form`); the optimizer exploits both.
    """

    def __init__(self, pure_functional):
        self._pf = pure_functional
        self.poly = getattr(pure_functional, "polynomial", None)
        self.min_tau = math.inf

    def contribution(self, row: np.ndarray) -> float:
        p = float(np.vdot(row, row).real)
        if p < PROB_FLOOR:
            return 0.0
        if self.poly is not None:
            d, poly = self.poly
            value = 2.0 * abs(poly(row)) ** (2.0 / d)
            tau = (value / p) ** 2
            if tau < self.min_tau:
                self.min_tau = tau
            return value
        tau = self._pf(row / math.sqrt(p))
        if tau < self.min_tau:
            self.min_tau = tau
        return p * math.sqrt(tau) if tau > 0.0 else 0.0


def _binary_form(d: int, poly, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients A_0 ... A_d of the binary form P(x + z y) = sum A_k z^k.

    P is evaluated at the d + 1 roots of unity z = w^l, which is an inverse
    DFT of the coefficients, so one FFT recovers them.  By homogeneity the
    rotated rows are
        P(c x + e s y) = sum_k A_k c^(d-k) (e s)^k
        P(c y - e* s x) = sum_k A_k c^k (-e* s)^(d-k)
    for c = cos(t), s = sin(t), e = e^{i f}: row j reads the same
    coefficients in reverse order.
    """
    roots = np.exp(2j * math.pi * np.arange(d + 1) / (d + 1))
    return np.fft.fft(poly(x[None, :] + roots[:, None] * y[None, :])) / (d + 1)


def _pair_profile(d: int, coeffs: np.ndarray):
    """Objective sum_rows |form|^(2/d) of both rotated rows, given (t, f).

    Both forms are homogeneous Horner sums over the binary-form
    coefficients (row j reads them reversed), sharing the powers of cos(t).
    """
    coeffs = coeffs.tolist()
    expo = 2.0 / d
    top, bottom = coeffs[d], coeffs[0]
    pairs = tuple(zip(coeffs[d - 1::-1], coeffs[1:]))

    def pair_obj(theta: float, phi: float) -> float:
        c = math.cos(theta)
        es = cmath.rect(math.sin(theta), phi)
        ws = -es.conjugate()
        fi = top
        fj = bottom
        cp = 1.0
        for ai, aj in pairs:
            cp *= c
            fi = fi * es + ai * cp
            fj = fj * ws + aj * cp
        return abs(fi) ** expo + abs(fj) ** expo

    return pair_obj


@lru_cache(maxsize=None)
def _scan_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Factored monomials of the binary forms of both rows on the (t, f) grid.

    On row i the monomial of A_k is c^(d-k) s^k e^{ikf}; on row j it is
    c^k (-s)^(d-k) e^{ikf} times e^{-idf}, a unit factor that drops out of
    the modulus.  The real table `radial` stacks the t-parts of row i
    (first len(_SCAN_THETA) rows) over those of row j, and
    phases[k, f] = e^{ikf}, so |(radial * coefficients) @ phases| is |P|
    on both rotated rows, indexed by (t, f).  The product is small enough
    to stay out of threaded BLAS kernels.
    """
    c = np.cos(_SCAN_THETA)[:, None]
    s = np.sin(_SCAN_THETA)[:, None]
    k = np.arange(d + 1)
    radial = np.vstack([c ** (d - k) * s ** k, c ** k * (-s) ** (d - k)])
    return radial, np.exp(1j * np.outer(k, _SCAN_PHI))


def _apply_rotation(M, i, j, theta: float, phi: float) -> None:
    """Apply the phased Givens rotation (theta, phi) to rows (i, j) of M."""
    c = math.cos(theta)
    s = math.sin(theta)
    eip = complex(math.cos(phi), math.sin(phi))
    vi = M[i].copy()
    M[i] = c * vi + (eip * s) * M[j]
    M[j] = c * M[j] - (eip.conjugate() * s) * vi


def _descend(M, w, objective, config) -> tuple[float, bool]:
    """Sweep pair rotations until certified zero, stalled, or out of sweeps.

    Returns (objective value, clean); clean is False when max_sweeps ran
    out before the sweep-improvement tolerance was met or a zero certified.
    """
    r = M.shape[0]
    obj = float(w.sum())
    for _ in range(config.max_sweeps):
        if obj * obj <= EARLY_STOP_VALUE:
            return obj, True
        before = obj
        for i in range(r - 1):
            for j in range(i + 1, r):
                _pair_step(M, objective, w, i, j)
        obj = float(w.sum())
        if before - obj < config.tol:
            return obj, True
    return obj, obj * obj <= EARLY_STOP_VALUE


def _pair_step(M, objective, w, i, j) -> None:
    """Best phased Givens rotation on rows (i, j); applied if it improves.

    The rotation with angle t and phase f sends
        row_i -> cos(t) row_i + e^{i f} sin(t) row_j
        row_j -> cos(t) row_j - e^{-i f} sin(t) row_i.
    Only the two touched rows change the objective.  For a polynomial leaf
    of degree d both rotated contributions are moduli of binary forms in
    (cos t, e^{i f} sin t) with d + 1 shared coefficients, so a dense
    (t, f) grid scan is one small matrix product.  Other leaves cost two
    member evaluations per trial and are scanned on a coarse grid.  Either
    grid seeds golden-section refinement of each angle in turn.
    """
    current = w[i] + w[j]
    if current <= 0.0:
        return  # contributions are nonnegative: this pair cannot improve
    vi = M[i]
    vj = M[j]

    if objective.poly is not None:
        d, poly = objective.poly
        # scaled so that |form|^(2/d) is the contribution 2 |P|^(2/d)
        coeffs = 2.0 ** (d / 2) * _binary_form(d, poly, vi, vj)
        pair_obj = _pair_profile(d, coeffs)
        radial, phases = _scan_tables(d)
        rows = np.abs((radial * coeffs) @ phases) ** (2.0 / d)
        grid = (rows[:len(_SCAN_THETA)] + rows[len(_SCAN_THETA):]).ravel()
        flat = int(np.argmin(grid))
        theta = float(_SCAN_THETA[flat // len(_SCAN_PHI)])
        phi = float(_SCAN_PHI[flat % len(_SCAN_PHI)])
        best = float(grid[flat])
        if best >= current:
            theta, phi, best = 0.0, 0.0, current
        th_half = float(_SCAN_THETA[1] - _SCAN_THETA[0])
        ph_half = float(_SCAN_PHI[1] - _SCAN_PHI[0])
    else:
        def pair_obj(theta: float, phi: float) -> float:
            c = math.cos(theta)
            s = math.sin(theta)
            eip = complex(math.cos(phi), math.sin(phi))
            return (objective.contribution(c * vi + (eip * s) * vj)
                    + objective.contribution(c * vj - (eip.conjugate() * s) * vi))

        theta, phi, best = 0.0, 0.0, current
        for f in _PHI_COARSE:
            for t in _THETA_COARSE:
                val = pair_obj(t, f)
                if val < best:
                    theta, phi, best = t, f, val
        th_half = _THETA_HALF
        ph_half = _PHI_HALF

    t_ref, f_t = _golden_min(lambda t: pair_obj(t, phi),
                             theta - th_half, theta + th_half, _ANGLE_XTOL)
    if f_t < best:
        theta, best = t_ref, f_t
    p_ref, f_p = _golden_min(lambda f: pair_obj(theta, f),
                             phi - ph_half, phi + ph_half, _ANGLE_XTOL)
    if f_p < best:
        phi, best = p_ref, f_p
    if best >= current:
        return
    _apply_rotation(M, i, j, theta, phi)
    w[i] = objective.contribution(M[i])
    w[j] = objective.contribution(M[j])


def m_tangle_mixed(rho: DensityOperator, focus: int, partners, pure_functional,
                   config: RoofConfig) -> RoofResult:
    """Convex-roof m-tangle of `rho` with hub `focus`.

    Parameters
    ----------
    rho : DensityOperator
        State on exactly {focus} union partners.
    pure_functional : callable
        Maps a normalized amplitude vector (length 2^m) to the raw pure
        m-tangle of that member; may return small negatives, which are
        clamped under the square root and tracked in the result.
    config : RoofConfig
        Search budget; identical configs give bit-identical results.

    The search mixes the eigen-rows, zero-padded to rank + padding rows;
    restart 0 starts from the eigen-rows themselves.  A budget
    exhausted without meeting the sweep tolerance yields converged=False
    with the best value found, never an exception.
    """
    partners = as_subset(partners)
    expected = tuple(sorted((focus,) + partners.labels))
    if tuple(sorted(rho.qubit_labels)) != expected:
        raise InputError(
            f"rho acts on {rho.qubit_labels}, expected {expected}"
        )
    rows = canonical_ensemble(rho)
    r = len(rows) + config.padding
    objective = _Objective(pure_functional)
    # generic functionals pay real money per evaluation; lean on restarts
    # there and keep the kick escape for polynomial leaves
    kicks = _KICKS if objective.poly is not None else 1
    best_obj = math.inf
    best_rows = hjw_mix(rows, np.eye(r))
    converged = False
    restarts_used = 0

    for restart in range(config.restarts):
        restarts_used = restart + 1
        rng = np.random.default_rng([config.seed, restart])
        M = hjw_mix(rows, np.eye(r) if restart == 0 else _random_unitary(r, rng))
        w = np.array([objective.contribution(M[h]) for h in range(r)])
        obj = float(w.sum())
        clean = True
        # kick 0 is the first descent; each later one starts from a random
        # pair rotation of where the previous descent stopped
        for kick in range(1 + kicks):
            if kick:
                if obj * obj <= EARLY_STOP_VALUE or r < 2:
                    break
                i, j = sorted(rng.choice(r, size=2, replace=False))
                _apply_rotation(M, int(i), int(j),
                                rng.uniform(-0.5 * math.pi, 0.5 * math.pi),
                                rng.uniform(0.0, math.pi))
                w[i] = objective.contribution(M[i])
                w[j] = objective.contribution(M[j])
            obj, seg_clean = _descend(M, w, objective, config)
            clean = clean and seg_clean
            if obj < best_obj:
                best_obj, best_rows = obj, M.copy()
        converged = converged or clean
        if best_obj * best_obj <= EARLY_STOP_VALUE:
            converged = True
            break

    min_seen = objective.min_tau if objective.min_tau != math.inf else 0.0
    return RoofResult(
        value=float(best_obj * best_obj),
        best_rows=best_rows,
        restarts_used=restarts_used,
        converged=converged,
        min_pure_tangle_seen=float(min_seen),
    )
