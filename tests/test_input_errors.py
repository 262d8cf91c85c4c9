"""Library preconditions: each violation raises InputError, nothing else."""

import numpy as np
import pytest

from monotangle.monogamy import ckw_residual
from monotangle.qstate import (
    DensityOperator,
    InputError,
    QubitSubset,
    haar_random_state,
    ket_from_basis_terms,
    reduce_pure_state,
)
from monotangle.roof import RoofConfig, hjw_mix, m_tangle_mixed
from monotangle.tangle import TangleValue, mixed_tangle_term, pure_three_tangle
from monotangle.wclass import WClassParams, w_state_params

CFG = RoofConfig(restarts=1, max_sweeps=1)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: QubitSubset((2, 1)), "strictly increasing",
                 id="subset-decreasing"),
    pytest.param(lambda: mixed_tangle_term(haar_random_state(4, 0), 1, (5,),
                                           CFG),
                 r"labels \(5,\) exceed the state's 4 qubits",
                 id="partner-beyond-state"),
    pytest.param(lambda: mixed_tangle_term(haar_random_state(4, 0), 1, (1, 2),
                                           CFG),
                 "focus must not appear among partners",
                 id="focus-among-partners"),
    pytest.param(lambda: m_tangle_mixed(
        reduce_pure_state(haar_random_state(4, 0), (1, 2, 3)), 1, (2, 4),
        pure_three_tangle, CFG), "acts on", id="roof-labels-mismatch"),
    pytest.param(lambda: DensityOperator((1, 1), np.eye(4) / 4),
                 "bad qubit labels", id="operator-repeated-label"),
    pytest.param(lambda: DensityOperator((1,), np.eye(4) / 4),
                 "expected 2x2 matrix", id="operator-shape"),
    pytest.param(lambda: RoofConfig(seed=-1), "seed must be nonnegative",
                 id="config-negative-seed"),
    pytest.param(lambda: RoofConfig(max_sweeps=-1), "max_sweeps must be >= 0",
                 id="config-negative-sweeps"),
    pytest.param(lambda: hjw_mix(np.eye(2, dtype=complex), np.ones((2, 3))),
                 "mixing must be square", id="mixing-not-square"),
    pytest.param(lambda: TangleValue(0.5, level=0), "level must be >= 1",
                 id="tangle-level-zero"),
    pytest.param(lambda: ckw_residual(ket_from_basis_terms(1, [("0", 1.0)])),
                 "at least 2 qubits", id="ckw-one-qubit"),
    pytest.param(lambda: WClassParams(0.0, [1.0]), "length n >= 2",
                 id="wclass-one-coefficient"),
    pytest.param(lambda: w_state_params(1), "need n >= 2",
                 id="w-state-one-qubit"),
])
def test_precondition_raises_input_error(call, message):
    # pytest.raises(InputError) lets any other exception fail the test
    with pytest.raises(InputError, match=message):
        call()
