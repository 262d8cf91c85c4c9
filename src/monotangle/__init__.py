"""Tangle hierarchies and monogamy-inequality checks for multi-qubit states."""

from .monogamy import (
    MonogamyReport,
    ckw_residual,
    sm_residual,
    sweep_foci,
    verify_saturation,
)
from .qstate import (
    DensityOperator,
    InputError,
    InvalidStateError,
    QubitSubset,
    StateVector,
    density_from_pure,
    haar_random_state,
    ket_from_basis_terms,
    load_state,
    partial_trace,
    reduce_pure_state,
    save_state,
)
from .roof import (
    RoofConfig,
    RoofResult,
    hjw_mix,
    m_tangle_mixed,
)
from .tangle import (
    TangleValue,
    TermRecord,
    concurrence_2q,
    n_tangle_pure,
    one_tangle,
    two_tangle,
)
from .wclass import (
    WClassParams,
    WClassReduction,
    w_state_params,
    wclass_one_tangle,
    wclass_random,
    wclass_reduction,
    wclass_state,
    wclass_two_tangle,
)

__version__ = "0.1.0"

__all__ = [
    "DensityOperator",
    "InputError",
    "InvalidStateError",
    "MonogamyReport",
    "QubitSubset",
    "RoofConfig",
    "RoofResult",
    "StateVector",
    "TangleValue",
    "TermRecord",
    "WClassParams",
    "WClassReduction",
    "ckw_residual",
    "concurrence_2q",
    "density_from_pure",
    "haar_random_state",
    "hjw_mix",
    "ket_from_basis_terms",
    "load_state",
    "m_tangle_mixed",
    "n_tangle_pure",
    "one_tangle",
    "partial_trace",
    "reduce_pure_state",
    "save_state",
    "sm_residual",
    "sweep_foci",
    "two_tangle",
    "verify_saturation",
    "w_state_params",
    "wclass_one_tangle",
    "wclass_random",
    "wclass_reduction",
    "wclass_state",
    "wclass_two_tangle",
]
