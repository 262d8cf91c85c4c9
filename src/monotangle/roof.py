"""Convex-roof minimization for mixed-state m-tangles.

The roof of a mixed state rho is [min over decompositions of
sum_h p_h sqrt(tau(psi_h))]^2.  A decomposition is one complex array of
rows, the scaled members sqrt(p_h) psi_h: p_h is the squared norm of row
h, and zero rows are members with p_h = 0.  By Hughston, Jozsa & Wootters
(Phys. Lett. A 183, 14, 1993) every size-R decomposition of rho is an
R x R unitary times the eigen-rows (`DensityOperator.eigen_rows`, padded
with zero rows; :func:`hjw_mix`), so the search space is the unitary group.
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

A rank <= 2 state under the degree-4 leaf (every m = 3 term of rank <= 2)
takes another route, with no search: its pure states form the Bloch sphere
of its range, and its roof is the lower convex envelope of sqrt(tau) over
that sphere at rho's Bloch point (Osterloh, Siewert & Uhlmann, PRA 77,
032310, 2008).  A small linear program over a cached grid, the zeros of
the binary quartic and local patches solves it (:func:`_rank2_lp`) from
the eigen-rows, and its optimal basis is the returned decomposition.
:func:`m_tangles_mixed` routes the eigen-rows of one level's states under
one leaf and solves their linear programs together, one numpy pass per
column round.  A round is the same width for every term: a term short of
zeros or basic points repeats a column it has, after the original, so the
simplex never picks the copy.  :func:`m_tangle_mixed` checks a density
operator's labels.

Either value is attained by the returned rows, so it is an upper bound on
the roof of the leaf it was given.  For m <= 3 the leaf is exact, so the
value bounds the true roof; the search is exact on the certified workloads
(two-qubit tangles against the concurrence closed form, and reductions
whose members all have zero tangle), and the LP comes within ~1e-7 of the
exact rank-2 level-3 roofs.  An m >= 4 leaf subtracts inner roofs that are
upper bounds, so it lies below the true leaf: its value bounds no true roof.
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
    """Outcome of one convex roof: an HJW search or a rank-2 linear program.

    value:  the minimized [sum p_h sqrt(tau_h)]^2 over everything searched.
    best_rows: the best decomposition found, as scaled-member rows R
        with rho = R^T R* up to round-off.
    min_pure_tangle_seen: smallest raw pure tangle evaluated anywhere in
        the search, before clamping; significantly negative values are
        evidence worth surfacing, not errors.  Polynomial leaves (levels
        2 and 3) are moduli, so there it is never negative.
    method: the route that produced the value: "roof" for the HJW search
        (its certified-zero exit included), "rank2_lp" for the linear
        program of a rank <= 2 level-3 roof (its start exit included):
        no restarts (restarts_used = 0), converged by construction.
    """

    value: float
    best_rows: np.ndarray
    restarts_used: int
    converged: bool
    min_pure_tangle_seen: float
    method: str


def hjw_mix(rows: np.ndarray, mixing: np.ndarray) -> np.ndarray:
    """Mix decomposition rows through an R x R unitary (R >= row count).

    The rows (the anchor is `DensityOperator.eigen_rows`), zero-padded to
    R, are combined as phi_h = sum_l u_hl row_l.  Every row is a member:
    row h has probability |phi_h|^2 (zero rows are members with p = 0),
    and the mixed rows reconstruct the same density operator.
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
    coefficients in reverse order.  Leading axes of x and y are a stack of
    pairs, with one coefficient row each.
    """
    rows = x[..., None, :] + _unity_roots(d) * y[..., None, :]
    return np.fft.fft(poly(rows)) / (d + 1)


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
# reduced costs above -_LP_TOL are optimal: the weights sum to 1, so the
# objective is then at most _LP_TOL above its optimum over the columns
_LP_TOL = 1e-10
_LP_PIVOT_TOL = 1e-12           # smallest direction entry a ratio test uses
_LP_STALL = 1e-14               # a step this short counts as degenerate
_LP_MAX_PIVOTS = 1000
_LP_NEWTON_STEPS = 3
_LP_ZERO_FORM = 1e-13           # |form| at the members next to the zeros


def _bloch_columns(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Constraint columns (1, n_x, n_y, n_z) of the states alpha u0 + beta u1.

    n is the Bloch vector; the four entries stack on a new first axis.
    """
    cross = alpha.conj() * beta
    return np.array([np.ones(alpha.shape), 2.0 * cross.real, 2.0 * cross.imag,
                     np.abs(alpha) ** 2 - np.abs(beta) ** 2])


def _monomials(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """alpha^(4-k) beta^k for k = 0 ... 4, on a new last axis."""
    k = np.arange(5)
    return alpha[..., None] ** (4 - k) * beta[..., None] ** k


@lru_cache(maxsize=1)
def _lp_table():
    """The start columns: +z, -z, +x, +y, then a Fibonacci grid.

    The four axes come first: with w = (p0, p1, 0, 0) they are a feasible,
    nonsingular start basis, the same for every term.  Returns (points,
    columns, monomials, inverse): points stacks alpha over beta, columns
    is A and monomials are the rows of :func:`_monomials`, for these
    _LP_GRID + 4 columns alone, and inverse is the start basis inverted,
    B^-1 of the first four columns.  Every term of :func:`_rank2_lp`
    starts from copies of these.  Read-only, because the cache hands the
    same arrays to every term.
    """
    half = math.sqrt(0.5)
    i = np.arange(_LP_GRID) + 0.5
    z = 1.0 - 2.0 * i / _LP_GRID
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    alpha = np.concatenate([[1.0, 0.0, half, half], np.sqrt((1.0 + z) / 2.0)])
    beta = np.concatenate([[0.0, 1.0, half, 1j * half],
                           np.exp(1j * phi) * np.sqrt((1.0 - z) / 2.0)])
    alpha = alpha.astype(np.complex128)
    columns = _bloch_columns(alpha, beta)
    tables = (np.stack([alpha, beta]), columns, _monomials(alpha, beta),
              np.linalg.inv(columns[:, :4]))
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


def _simplex(A: np.ndarray, c: np.ndarray, basis: list[int],
             inverse: np.ndarray, x: list[float]) -> list[float]:
    """Revised simplex: min c.w subject to A w = b, w >= 0.

    The caller supplies a feasible nonsingular basis, its inverse B^-1 and
    its weights x = B^-1 b as a list.  `basis` and
    `inverse` are updated in place to the optimal ones, and the optimal
    weights are returned.  Each pivot updates B^-1 and x by a rank-one
    step: with d = B^-1 a_enter and leaving row l, row l becomes row l /
    d_l and every other row r loses d_r times that.  Pricing takes the
    most negative reduced cost, ratio ties going to the first row.  After
    a degenerate pivot it switches to Bland's rule until a pivot makes
    progress: the first improving column enters, and of the rows within
    _LP_STALL of the smallest ratio, the smallest basis index leaves.
    Raises RuntimeError past _LP_MAX_PIVOTS: an LP that does not finish is
    an internal failure, never a fallback.

    A caller that appends columns to A and solves again passes the basis,
    inverse and weights the last call left: the new columns only enter the
    pricing.  x carries the rounding of every pivot; :func:`_rank2_lp`
    solves once at the optimal basis for weights that reconstruct b to
    rounding.
    """
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
        # some entry is usable: the LP is bounded
        step, leave = math.inf, 0
        for row, (slope, weight) in enumerate(zip(slopes, x)):
            if slope > _LP_PIVOT_TOL:
                ratio = max(weight, 0.0) / slope
                if ratio < step:
                    step, leave = ratio, row
        if bland:  # so that rounding cannot split a tie
            for row, (slope, weight) in enumerate(zip(slopes, x)):
                if (slope > _LP_PIVOT_TOL and basis[row] < basis[leave]
                        and max(weight, 0.0) / slope <= step + _LP_STALL):
                    leave = row
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
    return x


def _lp_result(rows: np.ndarray, objective: _Objective,
               floor: float = math.inf) -> RoofResult:
    """The rank-2 roof result of `rows`, valued by the term's objective.

    `floor` is the smallest pure tangle among the LP's columns, if any:
    the squared least cost.
    """
    value = sum(objective.contribution(row) for row in rows)
    return RoofResult(value=float(value * value), best_rows=rows,
                      restarts_used=0, converged=True,
                      min_pure_tangle_seen=float(min(objective.min_tau, floor)),
                      method="rank2_lp")


def _rank2_lp(rows: list[np.ndarray],
              objectives: list[_Objective]) -> list[RoofResult]:
    """Roofs of rank <= 2 states under the degree-4 leaf, as linear programs.

    Takes the eigen-rows and the objective of each of K terms and returns
    their results in order.  Per term it minimizes sum_k w_k g(n_k), with
    g = sqrt(tau) on psi(n_k), subject to sum_k w_k (1, n_k) = (p0 + p1,
    0, 0, p0 - p1) and w >= 0, over the axes, a Fibonacci grid, the zeros
    of the binary quartic (the zero-tangle members of the range) and local
    patches around the basic points of each solve.  g = 2 |sum_k Q_k
    alpha^(4-k) beta^k|^(1/2), where Q is the binary form of Det on
    (u0, u1).  The start basis, p0 and p1 on the +-z axes, is the
    eigen-rows, returned for a pure state or a certified zero; every
    result, these included, is built by :func:`_lp_result`.

    The other terms are solved together, one column round at a time: the
    zeros, then one round per patch spacing.  Every round is the same width
    for every term, 4 points in the zeros round and 4 x 24 in a patch
    round, so a round is one numpy pass that builds the new points, Bloch
    columns and costs of every term and appends them to the stacked arrays.
    A term with fewer than 4 zeros repeats the +z axis, and one with fewer
    than 4 weighted basic points repeats its first centre's patch, always
    after its own columns: a copy's reduced cost equals the original's,
    pricing takes the first minimum and Bland's rule the first improving
    column, so a copy never enters.  The start basis is the same four axes
    for every term, so each term starts from a copy of the cached B^-1 of
    :func:`_lp_table` and its own weights B^-1 b; its basis, B^-1 and
    weights then carry over from round to round (:func:`_simplex`), and
    one backward-stable solve after the last round gives the weights,
    whose rows sqrt(w_k) psi(n_k) on the optimal basis are returned.
    Every number is computed as it would be for a batch of one.
    """
    results = [_lp_result(r, objective)
               for r, objective in zip(rows, objectives)]
    todo = [k for k, result in enumerate(results)
            if len(rows[k]) > 1 and result.value > EARLY_STOP_VALUE]
    if not todo:
        return results
    eigen = np.stack([rows[k] for k in todo])
    probs = np.einsum("kij,kij->ki", eigen, eigen.conj()).real
    units = eigen / np.sqrt(probs)[..., None]
    coeffs = _binary_form(4, objectives[todo[0]].poly[1],
                          units[:, 0], units[:, 1])

    terms = len(todo)
    start_points, start_columns, start_monos, start_inverse = _lp_table()
    points = np.repeat(start_points[:, None], terms, axis=1)
    A = np.repeat(start_columns[None], terms, axis=0)
    c = 2.0 * np.sqrt(np.abs(start_monos @ coeffs[..., None]))[..., 0]
    b = np.zeros((terms, 4))
    b[:, 0] = probs.sum(axis=1)
    b[:, 3] = probs[:, 0] - probs[:, 1]
    term_rows = np.arange(terms)[:, None]
    bases = [[0, 1, 2, 3] for _ in todo]
    inverses = [start_inverse.copy() for _ in todo]
    weights = [(inverse @ b_k).tolist() for inverse, b_k in zip(inverses, b)]

    def rounds():
        # the quartic's zeros, padded to 4 with +z, then 5 x 5 tangent-plane
        # patches around the weighted basic points of the last solve, padded
        # to 4 with the first: (psi + t psi_perp) / |..|, psi_perp =
        # (-beta*, alpha*), lies a Bloch angle of ~2 |t| from psi
        plus_z = [[1.0] * 4, [0.0] * 4]
        yield np.stack([np.concatenate([_quartic_zeros(q), plus_z], 1)[:, :4]
                        for q in coeffs], 1)
        for t, norm in _LP_PATCH_STEPS:
            index = []
            for basis, x in zip(bases, weights):
                centres = [k for k, w in zip(basis, x) if w > 0.0]
                index.append(centres + centres[:1] * (4 - len(centres)))
            alpha, beta = points[:, term_rows, index, None]
            new = norm * np.array([alpha - t * beta.conj(),
                                   beta + t * alpha.conj()])
            yield new.reshape(2, terms, -1)

    for new in rounds():
        costs = 2.0 * np.sqrt(np.abs(
            _monomials(*new) @ coeffs[..., None]))[..., 0]
        points = np.concatenate([points, new], 2)
        A = np.concatenate([A, _bloch_columns(*new).transpose(1, 0, 2)], 2)
        c = np.concatenate([c, costs], 1)
        weights = [_simplex(A[k], c[k], bases[k], inverses[k], weights[k])
                   for k in range(terms)]

    solved = np.linalg.solve(A[term_rows, :, bases].transpose(0, 2, 1),
                             b[..., None])[..., 0]
    for row, (k, basis, x) in enumerate(zip(todo, bases, solved)):
        keep = [i for i in range(len(basis)) if x[i] > 0.0]
        picked = [basis[i] for i in keep]
        best_rows = (np.sqrt(x[keep])[:, None]
                     * (points[0, row, picked, None] * units[row, 0]
                        + points[1, row, picked, None] * units[row, 1]))
        results[k] = _lp_result(best_rows, objectives[k], c[row].min() ** 2)
    return results


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
        State on exactly {focus} union partners, else InputError.
    pure_functional : callable
        Maps a normalized amplitude vector (length 2^m) to the raw pure
        m-tangle of that member; may return small negatives, which are
        clamped under the square root and tracked in the result.
    config : RoofConfig
        Search budget; identical configs give bit-identical results.

    The label check, then a batch of one of :func:`m_tangles_mixed`.
    """
    partners = as_subset(partners)
    expected = tuple(sorted((focus,) + partners.labels))
    if tuple(sorted(rho.qubit_labels)) != expected:
        raise InputError(
            f"rho acts on {rho.qubit_labels}, expected {expected}"
        )
    return m_tangles_mixed([rho.eigen_rows], pure_functional, config)[0]


def m_tangles_mixed(rows, pure_functional,
                    config: RoofConfig) -> list[RoofResult]:
    """Convex-roof m-tangles of several states under one leaf, in order.

    rows[k] must be state k's eigen-rows as `DensityOperator.eigen_rows`
    gives them, orthogonal and by decreasing weight: the LP puts the state
    on its Bloch axis and starts from them.  `pure_functional` and
    `config` are those of :func:`m_tangle_mixed`.  The route reads the
    leaf's degree and len(rows[k]) alone.  Under the degree-4 leaf (every
    m = 3 term), rank <= 2 states are solved together by the linear
    programs of :func:`_rank2_lp` (method "rank2_lp"), where `config` does
    not apply; every other roof is the HJW search :func:`_hjw_search`
    ("roof").  Each result is the one its state gets alone.
    """
    objectives = [_Objective(pure_functional) for _ in rows]
    poly = getattr(pure_functional, "polynomial", None)
    lp = [k for k, r in enumerate(rows)
          if poly is not None and poly[0] == 4 and len(r) <= 2]
    solved = dict(zip(lp, _rank2_lp([rows[k] for k in lp],
                                    [objectives[k] for k in lp])))
    return [solved[k] if k in solved
            else _hjw_search(r, objectives[k], config)
            for k, r in enumerate(rows)]
