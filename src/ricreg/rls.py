"""Exact updates of the flow state: the flow of each block in closed form.

Adding a block with weight lam runs the data flow of the block for time lam,
removing it runs the flow backward.  Along the eigenvector of
G = phi P phi' with eigenvalue a the flow decays like s = 1 / (1 + a t), so the
integral of s^2 over the signed duration T = +-lam is c = T / (1 + a T), and
the row-space update of ``_kernels`` with this integral is the Woodbury
identity for P_new^-1 = P^-1 + T phi' phi, with the matching updates of q
and r:

    P_new = P - T P phi' (I + T phi P phi')^-1 phi P

A removal is refused (``NumericsError``) exactly when some 1 + a T <= 0,
i.e. when I - lam phi P phi' is not positive definite: the block was never
incorporated, or arithmetic has degraded too far.  No forgetting factor and
no square-root filtering: updates are exact but inherit the usual numerical
fragility of plain RLS on badly conditioned streams.  ``elapsed`` follows the
same rule as the RK4 engine.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .engine import _new_elapsed
from .model import DataBlock, Hyperparams, RiccatiState, validate_block

__all__ = ["RlsState", "rls_add", "rls_remove", "rls_fit"]

_ADD_REFUSAL = "ill-conditioned update solve"
_REMOVE_REFUSAL = "block not removable: I - lam phi P phi' is not positive definite"


class RlsState(RiccatiState):
    """The flow state under its former name, kept for perfbench (a shim)."""

    def theta_star(self, hyper: Hyperparams) -> np.ndarray:
        return self.p @ hyper.evaluation_point() + self.q

    def to_riccati_state(self, r: float | None = None, elapsed: float = 0.0) -> RiccatiState:
        return RiccatiState(p=self.p, q=self.q, r=r, elapsed=elapsed)


def _exact(state: RiccatiState, block: DataBlock, signed_lam: float, refusal: str) -> RlsState:
    validate_block(block, state.n)
    if block.lam == 0.0:
        return state
    track = state.r is not None
    p = state.p.copy()
    q = state.q.copy()
    r = _kernels.exact_dense(
        p, q, state.r if track else 0.0, block.phi, block.y, signed_lam, track, refusal
    )
    return RlsState(
        p=p, q=q, r=r if track else None, elapsed=_new_elapsed(state.elapsed, signed_lam)
    )


def rls_add(state: RiccatiState, block: DataBlock) -> RlsState:
    """Exact incorporation of one block."""
    return _exact(state, block, block.lam, _ADD_REFUSAL)


def rls_remove(state: RiccatiState, block: DataBlock) -> RlsState:
    """Exact removal of a previously added block; refused with
    ``NumericsError`` when I - lam phi P phi' is not positive definite."""
    return _exact(state, block, -block.lam, _REMOVE_REFUSAL)


def rls_fit(hyper: Hyperparams, blocks) -> RlsState:
    """Exact fit from the fresh state p = diag(1/gamma), q = 0, r = 0: one
    (p, q, r) updated in place, one state built at the end."""
    p = np.diag(1.0 / hyper.gamma)
    q = np.zeros(hyper.n)
    r = elapsed = 0.0
    for block in blocks:
        validate_block(block, hyper.n)
        if block.lam != 0.0:
            r = _kernels.exact_dense(p, q, r, block.phi, block.y, block.lam, True, _ADD_REFUSAL)
            elapsed = _new_elapsed(elapsed, block.lam)
    return RlsState(p=p, q=q, r=r, elapsed=elapsed)
