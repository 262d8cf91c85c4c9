"""Dense multi-qubit pure states and density operators.

Conventions used throughout the package:

* Qubit labels are 1-based.  Label 1 is the most significant bit of an
  amplitude index, so the computational-basis ket |q1 q2 ... qn> sits at
  the index whose binary expansion reads q1 q2 ... qn.
* A density operator carries the ordered tuple of labels it acts on; the
  first label in the tuple is the most significant bit of its matrix
  indices.
* Reshaped to (2,) * n, an amplitude vector has one axis per qubit in
  label order, and a density matrix on k labels has k row axes followed
  by k column axes.  Reductions permute and contract these axes.
* Everything is stored dense (complex128), capped at MAX_QUBITS qubits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# squared-norm deviation accepted without rescaling; strictly inside
# TRACE_TOL, so that the reductions of an accepted state, whose traces are
# the same norm summed in another order, pass the trace check
NORM_TOL = 5e-13
PSD_TOL = 1e-10         # eigenvalues may undershoot zero by this much
PROB_FLOOR = 1e-12      # ensemble weights below this are dropped
_NORMAL_MIN = float(np.finfo(np.float64).tiny)  # smallest normal float


class InputError(ValueError):
    """Caller-supplied data violates a precondition."""


class InvalidStateError(InputError):
    """Data cannot represent a physical state (zero norm, bad shape, ...)."""


# ---------------------------------------------------------------------------
# domain types


def check_num_qubits(num_qubits: int) -> None:
    """Reject qubit counts outside [1, MAX_QUBITS] before anything is allocated."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise InputError(
            f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}"
        )


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state on `num_qubits` qubits.

    `renormalized` is metadata: True when the constructing routine had to
    rescale the raw input (norm off by more than NORM_TOL but nonzero).
    """

    num_qubits: int
    amplitudes: np.ndarray
    renormalized: bool = False

    def __post_init__(self):
        check_num_qubits(self.num_qubits)
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise InvalidStateError(
                f"expected {1 << self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        # every comparison with NaN is false, so the norm check would pass it
        if not np.isfinite(amps).all():
            raise InvalidStateError("amplitudes must be finite (no NaN or inf)")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise InvalidStateError(
                f"state not normalized: <psi|psi> = {norm_sq!r}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


@dataclass(frozen=True)
class QubitSubset:
    """Strictly increasing tuple of distinct positive qubit labels."""

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(int(x) for x in self.labels)
        if not labels:
            raise InputError("qubit subset must be nonempty")
        if any(l < 1 for l in labels):
            raise InputError(f"qubit labels must be positive, got {labels}")
        if any(a >= b for a, b in zip(labels, labels[1:])):
            raise InputError(f"qubit labels must be strictly increasing, got {labels}")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)


def as_subset(labels) -> QubitSubset:
    """Coerce a label collection to a QubitSubset (sorted; duplicates rejected)."""
    if isinstance(labels, QubitSubset):
        return labels
    labels = tuple(int(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise InputError(f"duplicate qubit labels in {labels}")
    return QubitSubset(tuple(sorted(labels)))


def check_labels_in_range(subset: QubitSubset, num_qubits: int) -> None:
    if subset.labels and subset.labels[-1] > num_qubits:
        raise InputError(
            f"labels {subset.labels} exceed the state's {num_qubits} qubits"
        )


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Unit-trace Hermitian PSD operator on an ordered set of qubit labels.

    `eigen_rows` (read-only) comes from the eigh of the PSD check: rows R,
    row h = sqrt(p_h) psi_h with p_h decreasing and > PROB_FLOOR; R^T R* = matrix.
    """

    qubit_labels: tuple[int, ...]
    matrix: np.ndarray
    eigen_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        labels = tuple(int(x) for x in self.qubit_labels)
        if not labels or len(set(labels)) != len(labels) or min(labels) < 1:
            raise InputError(f"bad qubit labels {labels}")
        object.__setattr__(self, "qubit_labels", labels)
        dim = 1 << len(labels)
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.shape != (dim, dim):
            raise InputError(f"expected {dim}x{dim} matrix, got shape {mat.shape}")
        # NaN slips through the tolerance checks below, inf breaks eigh
        if not np.isfinite(mat).all():
            raise InvalidStateError("matrix entries must be finite (no NaN or inf)")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise InputError("matrix is not Hermitian within tolerance")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TRACE_TOL:
            raise InputError(f"trace must be 1, got {trace!r}")
        evals, evecs = np.linalg.eigh(mat)
        if float(evals[0]) < -PSD_TOL:
            raise InputError("matrix has a significantly negative eigenvalue")
        keep = evals[::-1] > PROB_FLOOR
        rows = np.sqrt(evals[::-1][keep])[:, None] * evecs[:, ::-1][:, keep].T
        rows.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigen_rows", rows)

    @property
    def num_qubits(self) -> int:
        return len(self.qubit_labels)


# ---------------------------------------------------------------------------
# constructors


def _normalized_state(num_qubits: int, amps: np.ndarray) -> StateVector:
    """Accept near-unit inputs unchanged; rescale (and flag) anything else.

    Where <psi|psi> over- or underflows a normal float, the norm is taken
    of the amplitudes divided by their largest real or imaginary part.
    """
    norm_sq = float(np.vdot(amps, amps).real)
    if abs(norm_sq - 1.0) <= NORM_TOL:
        return StateVector(num_qubits, amps)
    if _NORMAL_MIN <= norm_sq < np.inf:
        return StateVector(num_qubits, amps / np.sqrt(norm_sq), renormalized=True)
    # real division: a complex one by a subnormal overflows
    parts = np.ascontiguousarray(amps).view(np.float64)
    largest = float(np.max(np.abs(parts)))
    if not np.isfinite(largest):
        raise InvalidStateError(f"state norm is not finite: <psi|psi> = {norm_sq!r}")
    if largest == 0.0:
        raise InvalidStateError("state has zero norm")
    amps = (parts / largest).view(np.complex128)
    return StateVector(num_qubits, amps / np.sqrt(float(np.vdot(amps, amps).real)),
                       renormalized=True)


def ket_from_basis_terms(num_qubits: int, terms) -> StateVector:
    """Build a state from (bitstring, amplitude) pairs.

    Bitstrings read |q1 q2 ... qn> with qubit 1 leftmost.  The result is
    normalized: inputs whose squared norm is off by more than NORM_TOL are
    rescaled and flagged via StateVector.renormalized.
    """
    check_num_qubits(num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    seen = set()
    for bits, coeff in terms:
        if len(bits) != num_qubits or set(bits) - {"0", "1"}:
            raise InputError(f"bad bitstring {bits!r} for {num_qubits} qubits")
        if bits in seen:
            raise InputError(f"duplicate bitstring {bits!r}")
        seen.add(bits)
        amps[int(bits, 2)] = coeff
    return _normalized_state(num_qubits, amps)


def haar_random_state(num_qubits: int, seed: int) -> StateVector:
    """Haar-random pure state: normalized i.i.d. complex Gaussian amplitudes."""
    check_num_qubits(num_qubits)
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(num_qubits, v / np.linalg.norm(v))


def density_from_pure(state: StateVector) -> DensityOperator:
    """Rank-1 projector |psi><psi| on labels (1, ..., n)."""
    amps = state.amplitudes
    return DensityOperator(
        tuple(range(1, state.num_qubits + 1)), np.outer(amps, amps.conj())
    )


# ---------------------------------------------------------------------------
# partial trace


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every label of `rho` not in `keep`.

    The matrix is viewed as one axis of size 2 per row qubit and per column
    qubit, in label order.  Row and column axes are permuted alike, kept
    labels first, and the environment block is traced:
    rho_keep[i, j] = sum_e rho[(i, e), (j, e)].  The block is divided by
    its own trace: that trace is rho's, summed in another order, so an
    operator accepted at the edge of TRACE_TOL could otherwise fail it.
    """
    keep = as_subset(keep)
    labels = rho.qubit_labels
    missing = [l for l in keep.labels if l not in labels]
    if missing:
        raise InputError(f"labels {missing} not present in {labels}")
    k = len(labels)
    keep_pos = tuple(labels.index(l) for l in keep.labels)
    env_pos = tuple(p for p in range(k) if p not in keep_pos)
    order = keep_pos + env_pos
    dim_keep, dim_env = 1 << len(keep_pos), 1 << len(env_pos)
    blocks = (rho.matrix.reshape((2,) * 2 * k)
              .transpose(order + tuple(k + p for p in order))
              .reshape(dim_keep, dim_env, dim_keep, dim_env))
    reduced = np.trace(blocks, axis1=1, axis2=3)
    return DensityOperator(keep.labels, reduced / np.trace(reduced).real)


def _pure_factor(amps: np.ndarray, num_qubits: int, keep_positions) -> np.ndarray:
    """A pure state as its (kept, rest) amplitude matrix f: rho = f f^dagger.

    `keep_positions` are 0-based positions (label l sits at position l-1).
    The amplitudes, viewed as one axis per qubit, are permuted so the kept
    positions lead, then flattened to rows (kept) and columns (the rest).
    """
    keep_positions = tuple(keep_positions)
    env = tuple(p for p in range(num_qubits) if p not in keep_positions)
    return (amps.reshape((2,) * num_qubits)
            .transpose(keep_positions + env)
            .reshape(1 << len(keep_positions), -1))


def _reduced_from_pure(amps: np.ndarray, num_qubits: int, keep_positions) -> np.ndarray:
    """Reduced density matrix of a pure state, as a raw array.

    sub @ sub^dagger of the :func:`_pure_factor` matrix.  Fast path used
    by the tangle functionals; equivalent to building the projector and
    calling partial_trace, which the tests verify.
    """
    sub = _pure_factor(amps, num_qubits, keep_positions)
    return sub @ sub.conj().T


def reduce_pure_state(state: StateVector, keep) -> DensityOperator:
    """partial_trace of |psi><psi| onto `keep`, via the pure-state fast path."""
    keep = as_subset(keep)
    check_labels_in_range(keep, state.num_qubits)
    mat = _reduced_from_pure(
        state.amplitudes, state.num_qubits, tuple(l - 1 for l in keep.labels)
    )
    return DensityOperator(keep.labels, mat)


# ---------------------------------------------------------------------------
# JSON serialization


def state_to_dict(state: StateVector) -> dict:
    return {
        "num_qubits": state.num_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


def _json_number(value):
    """`value` if it is a JSON number: a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def complex_from_json(pair) -> complex:
    """A record's [re, im] entry: exactly two JSON numbers, each a float."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected [re, im], got {pair!r}")
    try:
        return complex(_json_number(pair[0]), _json_number(pair[1]))
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"[re, im] entry: {exc}") from exc


def state_from_dict(data: dict) -> StateVector:
    """Read a state record as strictly as `state.schema.json` types it.

    `num_qubits` must be an integer (an integral float such as 2.0 counts,
    as in draft-07), and every amplitude exactly two numbers; keys beyond
    the two are ignored.
    """
    try:
        n = _json_number(data["num_qubits"])
        if isinstance(n, float) and not n.is_integer():
            raise ValueError(f"num_qubits must be an integer, got {n!r}")
        n = int(n)
        amps = np.array([complex_from_json(pair) for pair in data["amplitudes"]],
                        dtype=np.complex128)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed state record: {exc}") from exc
    check_num_qubits(n)
    if amps.shape != (1 << n,):
        raise InputError(
            f"expected {1 << n} amplitudes for {n} qubits, got {len(amps)}"
        )
    return _normalized_state(n, amps)


def save_state(state: StateVector, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(state_to_dict(state), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write state file {path}: {exc}") from exc


def load_state(path) -> StateVector:
    # ValueError covers bad JSON, bad UTF-8 and an integer literal past
    # the interpreter's int conversion limit
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read state file {path}: {exc}") from exc
    return state_from_dict(data)
