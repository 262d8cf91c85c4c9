"""Monogamy residuals: CKW and strong-monogamy (SM) checks with full reports.

For a pure n-qubit state with hub qubit `focus`:

* the CKW residual is the one-tangle minus the sum of all pair two-tangles,
  nonnegative for every state and zero exactly for W-class states;
* the SM residual additionally subtracts every mixed m-tangle term
  (m = 3 ... n-1) to the power m/2, so it refines CKW: it can only be
  smaller.  A negative SM residual beyond tolerance is a violation
  candidate and is surfaced, never swallowed.

Both are folds over the one hierarchy recursion of :mod:`monotangle.tangle`
(the CKW residual over its level-2 terms only), so a term has the same
value whichever residual it enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qstate import InputError, StateVector
from .roof import RoofConfig
from .tangle import TermRecord, _fold, _state_hierarchy
from .wclass import WClassParams, wclass_state

DEFAULT_TOL_CLOSED = 1e-9   # verdict tolerance for closed-form arithmetic
DEFAULT_TOL_ROOF = 1e-6     # verdict tolerance where roof searches enter


@dataclass(frozen=True, eq=False)
class MonogamyReport:
    """Per-focus tangle hierarchy with CKW and SM residuals and verdicts."""

    focus: int
    num_qubits: int
    one_tangle: float
    terms: tuple[TermRecord, ...]
    ckw_residual: float
    sm_residual: float
    saturated_ckw: bool
    saturated_sm: bool
    sm_violation: bool
    converged: bool
    tol_closed: float
    tol_roof: float
    min_pure_tangle_seen: float | None

    def to_json_dict(self) -> dict:
        return {
            "focus": self.focus,
            "num_qubits": self.num_qubits,
            "one_tangle": self.one_tangle,
            "terms": [t.to_json_dict() for t in self.terms],
            "ckw_residual": self.ckw_residual,
            "sm_residual": self.sm_residual,
            "saturated_ckw": self.saturated_ckw,
            "saturated_sm": self.saturated_sm,
            "sm_violation": self.sm_violation,
            "converged": self.converged,
            "tolerances": {"closed": self.tol_closed, "roof": self.tol_roof},
            "min_pure_tangle_seen": self.min_pure_tangle_seen,
        }


def check_tolerance(name: str, value: float) -> None:
    """Raise InputError unless a verdict tolerance is finite and >= 0.

    A negative tolerance turns a saturating residual into a violation and
    a NaN one makes every comparison false, so neither gives a verdict.
    """
    if not (math.isfinite(value) and value >= 0):
        raise InputError(f"{name} must be finite and >= 0, got {value!r}")


def ckw_residual(state: StateVector, focus: int = 1) -> float:
    """One-tangle minus the sum of closed-form pair two-tangles.

    The two-tangles are exact (concurrence closed form): these are the
    level-2 terms of the hierarchy, so no roof search is involved.
    """
    if state.num_qubits < 2:
        raise InputError("CKW residual needs at least 2 qubits")
    return _fold(*_state_hierarchy(state, focus, None, top=2))


def sm_residual(state: StateVector, focus: int, config: RoofConfig, *,
                tol_closed: float = DEFAULT_TOL_CLOSED,
                tol_roof: float = DEFAULT_TOL_ROOF) -> MonogamyReport:
    """Full strong-monogamy evaluation of a pure state with hub `focus`.

    Level-2 terms use the concurrence closed form; levels m >= 3 run the
    convex-roof search under `config`.  Roof non-convergence flags the
    report but the residual is still assembled from the best values found.
    The residual equals the recursive n-tangle of the state.  Every state
    that :mod:`monotangle.qstate` holds is evaluated; the cost grows
    combinatorially with n, and only the CLI caps n.
    """
    check_tolerance("tol_closed", tol_closed)
    check_tolerance("tol_roof", tol_roof)
    n = state.num_qubits
    if n < 3:
        raise InputError("SM evaluation needs at least 3 qubits")
    one_t, terms = _state_hierarchy(state, focus, config)
    roofs = [t.roof for t in terms if t.roof is not None]
    sm = _fold(one_t, terms)
    ckw = _fold(one_t, [t for t in terms if t.m == 2])
    # with no roof term (n = 3), SM is closed-form arithmetic like CKW
    tol_sm = tol_roof if roofs else tol_closed
    saturated_sm = bool(abs(sm) <= tol_sm
                        and all(r.value <= tol_sm for r in roofs))
    return MonogamyReport(
        focus=focus,
        num_qubits=n,
        one_tangle=one_t,
        terms=tuple(terms),
        ckw_residual=float(ckw),
        sm_residual=float(sm),
        saturated_ckw=bool(abs(ckw) <= tol_closed),
        saturated_sm=saturated_sm,
        sm_violation=bool(sm < -tol_sm),
        converged=all(r.converged for r in roofs),
        tol_closed=tol_closed,
        tol_roof=tol_roof,
        min_pure_tangle_seen=min(
            (r.min_pure_tangle_seen for r in roofs), default=None),
    )


def verify_saturation(params: WClassParams, config: RoofConfig,
                      **kwargs) -> MonogamyReport:
    """Build the W-class state for `params` and evaluate SM with hub 1.

    Saturation holds when the residual and every m >= 3 roof term sit
    within the roof tolerance (the closed-form one at n = 3, where no roof
    enters); failures come back as verdict booleans in the report, not
    exceptions.
    """
    return sm_residual(wclass_state(params), 1, config, **kwargs)


def sweep_foci(state: StateVector, config: RoofConfig,
               **kwargs) -> list[MonogamyReport]:
    """SM evaluation once per hub choice, in label order."""
    return [
        sm_residual(state, focus, config, **kwargs)
        for focus in range(1, state.num_qubits + 1)
    ]


def max_m3plus_term(report: MonogamyReport) -> float:
    """Largest m >= 3 term value in a report, or 0.0 when none exist."""
    values = [r.value for r in report.terms if r.m >= 3]
    return max(values) if values else 0.0
