"""Incremental l2-regularized linear regression via quadratic value-function flows.

The model state (P, q, r) is a sufficient statistic of all processed data:
fit it by RK4 integration (:mod:`ricreg.engine`) or exact Woodbury updates
(:mod:`ricreg.rls`), check it against the direct normal-equations solver
(:mod:`ricreg.oracle`), and reuse it to add/remove data, retune weights,
shift the prior, trace regularization paths, and drive the primal step of a
PDHG solver for weighted-l1 problems (:mod:`ricreg.pdhg`).
"""

from .engine import (
    IntegrationConfig,
    ParetoTrace,
    TraceRecord,
    add_block,
    extract_solution,
    fit,
    remove_block,
    shift_bias,
    tune_gamma,
    tune_lambda,
)
from .model import (
    Checkpoint,
    DataBlock,
    Hyperparams,
    ModelSolution,
    NumericsError,
    RiccatiState,
    new_state,
    read_blocks,
    read_checkpoint,
    validate_block,
    write_blocks,
    write_checkpoint,
)
from .oracle import solve_direct
from .pdhg import PdhgConfig, PdhgResult, ProxSpec, pdhg_solve, prox_dual
from .rls import RlsState, rls_add, rls_fit, rls_remove

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "DataBlock",
    "Hyperparams",
    "IntegrationConfig",
    "ModelSolution",
    "NumericsError",
    "ParetoTrace",
    "PdhgConfig",
    "PdhgResult",
    "ProxSpec",
    "RiccatiState",
    "RlsState",
    "TraceRecord",
    "add_block",
    "extract_solution",
    "fit",
    "new_state",
    "pdhg_solve",
    "prox_dual",
    "read_blocks",
    "read_checkpoint",
    "remove_block",
    "rls_add",
    "rls_fit",
    "rls_remove",
    "shift_bias",
    "solve_direct",
    "tune_gamma",
    "tune_lambda",
    "validate_block",
    "write_blocks",
    "write_checkpoint",
]
