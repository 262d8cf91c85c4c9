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
Givens rotations, and the result carries the best rows found.

Every pair step takes one path: the leaf supplies the pair objective of
the rotation angles and its values on a seed grid, the best grid point
seeds golden-section refinement of each angle, and the rotation is
written once (:func:`_rotate`).  Leaves whose square root is 2 |P|^(2/d)
for a homogeneous polynomial P of degree d -- the two-tangle (d = 2) and
the Cayley-hyperdeterminant three-tangle (d = 4) -- expose (d, P) as a
`polynomial` attribute.  For them a pair rotation is a binary form in
(cos t, e^{i f} sin t) with d + 1 coefficients, recovered by one FFT,
which makes a dense seed grid and the pair objective cheap.  Other leaves
(the recursive m >= 4 tangles) are evaluated member by member on a coarse
grid.

A rank <= 2 state under the degree-4 leaf (every m = 3 term whose
eigen-rows are not already a certified zero) takes another route, with no
search: its pure states form the Bloch sphere of its range, and its roof is
the lower convex envelope of sqrt(tau) over that sphere at rho's Bloch
point (Osterloh, Siewert & Uhlmann, PRA 77, 032310, 2008).  A small linear
program over a cached grid, the zeros of the binary quartic and local
patches solves it (:func:`_rank2_lp`), and its optimal basis is the
returned decomposition.

Either value is attained by the returned rows, so it is an upper bound on
the true roof; the search is exact for the workloads the package certifies
(two-qubit tangles against the concurrence closed form, and reductions
whose members all have zero tangle, where the objective is identically
zero), and the linear program comes within ~1e-7 of the exact rank-2
level-3 roofs.
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
_UNITARITY_TOL = 1e-10

# Seed grids of the pair step: flattened (theta, phi) points, then the
# golden-section half-widths of theta and phi around the pick.  The
# rotation angle is pi-periodic; with both signs of theta explored, the
# phase only needs [0, pi).  Polynomial leaves scan the dense grid,
# theta-major as _scan_tables lays it out; other leaves pay two member
# evaluations a point and take the coarse grid, phi-major.
_SCAN_THETA = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 32, endpoint=False)
_SCAN_PHI = np.linspace(0.0, math.pi, 16, endpoint=False)
_DENSE_GRID = (np.repeat(_SCAN_THETA, len(_SCAN_PHI)),
               np.tile(_SCAN_PHI, len(_SCAN_THETA)),
               float(_SCAN_THETA[1] - _SCAN_THETA[0]),
               float(_SCAN_PHI[1] - _SCAN_PHI[0]))
_COARSE_GRID = (np.tile([k * math.pi / 8.0 for k in (-3, -2, -1, 1, 2, 3)], 4),
                np.repeat([k * math.pi / 4.0 for k in range(4)], 6),
                math.pi / 8.0, math.pi / 4.0)

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
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InputError(f"tol must be finite and positive, got {self.tol!r}")

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
    method: the route that produced the value: "roof" for the HJW search
        (its certified-zero exit included), "rank2_lp" for the linear
        program of a rank <= 2 level-3 roof, which spends no restarts
        (restarts_used = 0) and is converged by construction.
    """

    value: float
    best_rows: np.ndarray
    restarts_used: int
    converged: bool
    min_pure_tangle_seen: float
    method: str


def canonical_ensemble(rho: DensityOperator) -> np.ndarray:
    """Eigen-decomposition of rho as the reference (HJW anchor) rows.

    Row h is sqrt(p_h) psi_h for the eigenpair (p_h, psi_h), ordered by
    decreasing p_h; eigenvalues at or below PROB_FLOOR are dropped.  The
    rows R satisfy rho = R^T R*.
    """
    evals, evecs = np.linalg.eigh(rho.matrix)
    evals = evals[::-1]
    keep = evals > PROB_FLOOR
    return np.sqrt(evals[keep])[:, None] * evecs[:, ::-1][:, keep].T


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
    # NaN would pass the unitarity comparison below
    if not np.isfinite(mixing).all():
        raise InputError("mixing entries must be finite (no NaN or inf)")
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
        else:
            tau = self._pf(row / math.sqrt(p))
            # a NaN would pass as a zero contribution and certify the roof
            if not math.isfinite(tau):
                raise RuntimeError(f"pure functional returned {tau!r}")
            value = p * math.sqrt(tau) if tau > 0.0 else 0.0
        if tau < self.min_tau:
            self.min_tau = tau
        return value


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
    return np.fft.fft(poly(x[None, :] + _unity_roots(d) * y[None, :])) / (d + 1)


@lru_cache(maxsize=None)
def _unity_roots(d: int) -> np.ndarray:
    """The d + 1 roots of unity w^l as a read-only column."""
    roots = np.exp(2j * math.pi * np.arange(d + 1) / (d + 1))[:, None]
    roots.flags.writeable = False
    return roots


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


def _rotate(vi, vj, theta: float, phi: float):
    """Rows (vi, vj) after the phased Givens rotation (theta, phi)."""
    c = math.cos(theta)
    s = math.sin(theta)
    eip = complex(math.cos(phi), math.sin(phi))
    return c * vi + (eip * s) * vj, c * vj - (eip.conjugate() * s) * vi


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
    Only the two touched rows change the objective.  The leaf supplies the
    pair objective of (t, f) and its values on a seed grid.  For a
    polynomial leaf of degree d both rotated contributions are moduli of
    binary forms in (cos t, e^{i f} sin t) with d + 1 shared coefficients,
    so the dense grid is one small matrix product; other leaves cost two
    member evaluations a point and take the coarse grid.  The grid's best
    point, if it improves, seeds golden-section refinement of each angle
    in turn.
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
        seeds = (rows[:len(_SCAN_THETA)] + rows[len(_SCAN_THETA):]).ravel()
        thetas, phis, th_half, ph_half = _DENSE_GRID
    else:
        def pair_obj(theta: float, phi: float) -> float:
            ri, rj = _rotate(vi, vj, theta, phi)
            return objective.contribution(ri) + objective.contribution(rj)

        thetas, phis, th_half, ph_half = _COARSE_GRID
        seeds = np.array([pair_obj(t, f) for t, f in zip(thetas, phis)])

    flat = int(np.argmin(seeds))
    theta, phi, best = float(thetas[flat]), float(phis[flat]), float(seeds[flat])
    if best >= current:
        theta, phi, best = 0.0, 0.0, current
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
    M[i], M[j] = _rotate(vi, vj, theta, phi)
    w[i] = objective.contribution(M[i])
    w[j] = objective.contribution(M[j])


# Rank-2 level-3 roofs: with rho = p0 |u0><u0| + p1 |u1><u1|, the pure states
# of its range are psi(n) = alpha u0 + beta u1, points n of a Bloch sphere on
# which rho sits at r = (0, 0, p0 - p1).  The roof of sqrt(tau) is its lower
# convex envelope at r (Osterloh, Siewert & Uhlmann, PRA 77, 032310, 2008),
# here a linear program over finitely many points.
_LP_GRID = 500                  # Fibonacci points on the Bloch sphere
_LP_PATCHES = (0.05, 0.0125, 0.003)  # Bloch-angle spacings of the patches
_LP_PATCH_OFFSETS = np.array([a + 1j * b for a in range(-2, 3)
                              for b in range(-2, 3) if a or b])
# per spacing, the tangent offsets t of its patch points and their
# normalizers 1 / |(1, t)|
_LP_PATCH_STEPS = tuple(
    (t, 1.0 / np.sqrt(1.0 + np.abs(t) ** 2))
    for t in (0.5 * spacing * _LP_PATCH_OFFSETS for spacing in _LP_PATCHES))
_LP_START = _LP_GRID + 4        # axes and grid
# column table width: start columns, the quartic's <= 4 zeros, and per
# round a patch around each of <= 4 basic points
_LP_COLUMNS = _LP_START + 4 + len(_LP_PATCHES) * 4 * len(_LP_PATCH_OFFSETS)
# reduced costs above -_LP_TOL are optimal: the weights sum to 1, so the
# objective is then at most _LP_TOL above its optimum over the columns
_LP_TOL = 1e-10
_LP_PIVOT_TOL = 1e-12           # smallest direction entry a ratio test uses
_LP_STALL = 1e-14               # a step this short counts as degenerate
_LP_MAX_PIVOTS = 1000
_LP_NEWTON_STEPS = 3
_LP_ZERO_FORM = 1e-13           # |form| at the members next to the zeros


def _bloch_columns(alpha: np.ndarray, beta: np.ndarray, out: np.ndarray) -> None:
    """Write the Bloch vectors n of the states alpha u0 + beta u1 into out.

    out is rows 1-3 of a slice of the constraint columns (1, n_x, n_y, n_z);
    row 0 is all ones in the column table already.
    """
    cross = alpha.conj() * beta
    out[0] = 2.0 * cross.real
    out[1] = 2.0 * cross.imag
    out[2] = np.abs(alpha) ** 2 - np.abs(beta) ** 2


def _monomials(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """alpha^(4-k) beta^k for k = 0 ... 4, one row per point."""
    k = np.arange(5)
    return alpha[:, None] ** (4 - k) * beta[:, None] ** k


@lru_cache(maxsize=1)
def _lp_table():
    """Column table with the start columns: +z, -z, +x, +y, then a Fibonacci grid.

    The four axes come first: with w = (p0, p1, 0, 0) they are a feasible,
    nonsingular start basis.  Returns (points, columns, monomials): points
    stacks alpha over beta and columns is A, both _LP_COLUMNS wide with the
    first _LP_START filled in, and monomials are those of the start
    columns.  Read-only, because the cache hands the same arrays to every
    term; a term copies the first two and fills in the rest.
    """
    half = math.sqrt(0.5)
    i = np.arange(_LP_GRID) + 0.5
    z = 1.0 - 2.0 * i / _LP_GRID
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    alpha = np.concatenate([[1.0, 0.0, half, half], np.sqrt((1.0 + z) / 2.0)])
    beta = np.concatenate([[0.0, 1.0, half, 1j * half],
                           np.exp(1j * phi) * np.sqrt((1.0 - z) / 2.0)])
    alpha = alpha.astype(np.complex128)
    points = np.zeros((2, _LP_COLUMNS), dtype=np.complex128)
    points[:, :_LP_START] = alpha, beta
    columns = np.zeros((4, _LP_COLUMNS))
    columns[0] = 1.0
    _bloch_columns(alpha, beta, columns[1:, :_LP_START])
    tables = (points, columns, _monomials(alpha, beta))
    for table in tables:
        table.flags.writeable = False
    return tables


def _quartic_zeros(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit (alpha, beta) next to each zero of sum_k Q_k alpha^(4-k) beta^k.

    These are the (near) zero-tangle members of the range.  The roots
    z = beta / alpha of sum_k Q_k z^k come from np.roots, which loses
    digits next to a (nearly) vanishing Q_4 -- a zero at or near the -z
    axis, such as W in a GHZ/W mixture -- so each root is polished by
    Newton steps, in z where |z| <= 1 and in 1/z, on the form read from
    the other end, elsewhere.  sqrt(tau) has a branch point at a zero: a
    float point there has |Det| at the rounding level (~1e-17), where two
    correct formulas for tau disagree in sqrt(tau) by ~1e-8.  So each
    member is moved off its zero by one further step, to |form| =
    _LP_ZERO_FORM, where sqrt(tau) ~ 6e-7 is reproducible to ~1e-11.
    """
    alphas, betas = [], []
    for z in np.roots(coeffs[::-1]).tolist():
        flip = abs(z) > 1.0
        form = coeffs.tolist() if flip else coeffs[::-1].tolist()
        if flip:
            z = 1.0 / z
        for _ in range(_LP_NEWTON_STEPS):
            value, slope = form[0], 0j
            for a in form[1:]:
                slope = slope * z + value
                value = value * z + a
            if slope == 0:
                break
            z -= (value - _LP_ZERO_FORM) / slope
        scale = 1.0 / math.sqrt(1.0 + abs(z) ** 2)
        alphas.append(z * scale if flip else scale)
        betas.append(scale if flip else z * scale)
    return (np.array(alphas, dtype=np.complex128),
            np.array(betas, dtype=np.complex128))


def _simplex(A: np.ndarray, c: np.ndarray, b: np.ndarray,
             basis: list[int]) -> np.ndarray:
    """Revised simplex: min c.w subject to A w = b, w >= 0.

    `basis` indexes a feasible nonsingular start basis and is updated in
    place to the optimal one; returns the basic weights.  The basis is
    inverted once on entry; each pivot then updates the inverse B^-1 and
    the basic weights x by a rank-one step: with d = B^-1 a_enter and
    leaving row l, row l becomes row l / d_l and every other row r loses
    d_r times that.  Pricing takes the most negative reduced cost; after a
    degenerate pivot it switches to Bland's smallest-index rule until a
    pivot makes progress, which rules out cycling in exact arithmetic (the
    ratio ties here are float equalities).  Raises RuntimeError past
    _LP_MAX_PIVOTS: an LP that does not finish is an internal failure,
    never a search fallback.
    """
    inverse = np.linalg.inv(A[:, basis])
    x = (inverse @ b).tolist()
    basic_costs = c[basis]
    bland = False
    for _ in range(_LP_MAX_PIVOTS):
        reduced = c - (basic_costs @ inverse) @ A
        if bland:
            candidates = np.flatnonzero(reduced < -_LP_TOL)
            if not len(candidates):
                break
            enter = int(candidates[0])
        else:
            enter = int(reduced.argmin())
            if reduced[enter] >= -_LP_TOL:
                break
        direction = inverse @ A[:, enter]
        slopes = direction.tolist()
        # the first row of A is all ones, so the direction sums to 1 and
        # some entry is usable: the LP is bounded.  Ties go to the first
        # row, or under Bland's rule to the smallest basis index.
        step, leave = math.inf, 0
        for row, (slope, weight) in enumerate(zip(slopes, x)):
            if slope > _LP_PIVOT_TOL:
                ratio = max(weight, 0.0) / slope
                if ratio < step or (ratio == step and bland
                                    and basis[row] < basis[leave]):
                    step, leave = ratio, row
        bland = step <= _LP_STALL
        pivot = slopes[leave]
        pivot_row = inverse[leave] / pivot
        inverse -= direction[:, None] * pivot_row
        inverse[leave] = pivot_row
        pivot_x = x[leave] / pivot
        x = [weight - slope * pivot_x for slope, weight in zip(slopes, x)]
        x[leave] = pivot_x
        basis[leave] = enter
        basic_costs[leave] = c[enter]
    else:
        raise RuntimeError(f"rank-2 roof LP exceeded {_LP_MAX_PIVOTS} pivots")
    # the updated inverse prices; a backward-stable solve gives the weights,
    # so that the decomposition reconstructs b to rounding
    return np.linalg.solve(A[:, basis], b)


def _rank2_lp(rows: np.ndarray, objective: _Objective) -> RoofResult:
    """Roof of a rank <= 2 state under the degree-4 leaf, as a linear program.

    Minimizes sum_k w_k g(n_k), with g = sqrt(tau) on psi(n_k), subject to
    sum_k w_k (1, n_k) = (p0 + p1, 0, 0, p0 - p1) and w >= 0, over the
    axes, a Fibonacci grid, the zeros of the binary quartic (the
    zero-tangle members of the range) and local patches around the basic
    points of each solve.  g = 2 |sum_k Q_k alpha^(4-k) beta^k|^(1/2),
    where Q is the binary form of Det on (u0, u1).  The columns fill a
    copy of the cached table (:func:`_lp_table`) from the left, and each
    solve sees the filled prefix.  The value is that of the rows
    sqrt(w_k) psi(n_k) of the optimal basis, so it is an upper bound on
    the roof, attained by the returned decomposition.
    """
    if len(rows) == 1:
        value = objective.contribution(rows[0])
        return RoofResult(value=float(value * value), best_rows=rows,
                          restarts_used=0, converged=True,
                          min_pure_tangle_seen=float(objective.min_tau),
                          method="rank2_lp")
    probs = np.einsum("ij,ij->i", rows, rows.conj()).real
    units = rows / np.sqrt(probs)[:, None]
    coeffs = _binary_form(4, objective.poly[1], units[0], units[1])

    start_points, start_columns, start_monos = _lp_table()
    points = start_points.copy()
    alpha, beta = points
    A = start_columns.copy()
    c = np.empty(_LP_COLUMNS)
    zero_alpha, zero_beta = _quartic_zeros(coeffs)
    n = _LP_START + len(zero_alpha)
    points[:, _LP_START:n] = zero_alpha, zero_beta
    _bloch_columns(zero_alpha, zero_beta, A[1:, _LP_START:n])
    c[:n] = 2.0 * np.sqrt(np.abs(np.concatenate(
        [start_monos @ coeffs, _monomials(zero_alpha, zero_beta) @ coeffs])))
    b = np.array([probs.sum(), 0.0, 0.0, probs[0] - probs[1]])
    basis = [0, 1, 2, 3]
    x = _simplex(A[:, :n], c[:n], b, basis)
    for t, norm in _LP_PATCH_STEPS:
        # 5 x 5 patches in the tangent plane of each weighted basic point:
        # (psi + t psi_perp) / |..| with psi_perp = (-beta*, alpha*) lies a
        # Bloch angle of about 2 |t| from psi
        centre = [k for k, weight in zip(basis, x.tolist()) if weight > 0.0]
        centre_alpha = alpha[centre, None]
        centre_beta = beta[centre, None]
        new_alpha = ((centre_alpha - t * centre_beta.conj()) * norm).ravel()
        new_beta = ((centre_beta + t * centre_alpha.conj()) * norm).ravel()
        end = n + len(new_alpha)
        points[:, n:end] = new_alpha, new_beta
        _bloch_columns(new_alpha, new_beta, A[1:, n:end])
        c[n:end] = 2.0 * np.sqrt(np.abs(_monomials(new_alpha, new_beta) @ coeffs))
        n = end
        x = _simplex(A[:, :n], c[:n], b, basis)

    keep = [k for k in range(len(basis)) if x[k] > 0.0]
    picked = [basis[k] for k in keep]
    best_rows = (np.sqrt(x[keep])[:, None]
                 * (alpha[picked, None] * units[0] + beta[picked, None] * units[1]))
    value = sum(objective.contribution(row) for row in best_rows)
    return RoofResult(
        value=float(value * value),
        best_rows=best_rows,
        restarts_used=0,
        converged=True,
        min_pure_tangle_seen=float(min(objective.min_tau, c[:n].min() ** 2)),
        method="rank2_lp",
    )


def _hjw_search(rows: np.ndarray, objective: _Objective,
                config: RoofConfig) -> RoofResult:
    """Multi-start HJW search from the eigen-rows under `config`.

    The search mixes the eigen-rows, zero-padded to rank + padding rows;
    restart 0 starts from the eigen-rows themselves.  A budget exhausted
    without meeting the sweep tolerance yields converged=False with the
    best value found, never an exception.
    """
    r = len(rows) + config.padding
    # generic functionals pay real money per evaluation; lean on restarts
    # there and keep the kick escape for polynomial leaves
    kicks = _KICKS if objective.poly is not None else 1
    best_obj = math.inf
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
                M[i], M[j] = _rotate(M[i], M[j],
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

    return RoofResult(
        value=float(best_obj * best_obj),
        best_rows=best_rows,
        restarts_used=restarts_used,
        converged=converged,
        min_pure_tangle_seen=float(objective.min_tau),
        method="roof",
    )


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

    Under the degree-4 leaf (every m = 3 term), a rho of rank <= 2 whose
    eigen-rows are not already a certified zero is solved by the linear
    program of :func:`_rank2_lp` (method "rank2_lp"); `config` does not
    apply there.  Every other roof is the HJW search of
    :func:`_hjw_search` (method "roof"), including the certified-zero exit
    on the eigen-rows.
    """
    partners = as_subset(partners)
    expected = tuple(sorted((focus,) + partners.labels))
    if tuple(sorted(rho.qubit_labels)) != expected:
        raise InputError(
            f"rho acts on {rho.qubit_labels}, expected {expected}"
        )
    rows = canonical_ensemble(rho)
    objective = _Objective(pure_functional)
    if objective.poly is not None and objective.poly[0] == 4 and len(rows) <= 2:
        start = sum(objective.contribution(row) for row in rows)
        if start * start > EARLY_STOP_VALUE:
            return _rank2_lp(rows, objective)
    return _hjw_search(rows, objective, config)
