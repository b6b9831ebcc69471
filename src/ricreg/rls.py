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
incorporated, or arithmetic has degraded too far.  A G that overflows is
refused as well, for either sign of T.  The kernel raises before it
writes anything, and the new state checks its own p, q and r, as on the
RK4 path.  No forgetting factor and no square-root filtering: updates are
exact but inherit the usual numerical fragility of plain RLS on badly
conditioned streams.  ``elapsed`` follows the same rule as the RK4 engine.

``rls_fit`` treats the whole stream as one block: the flow of
1/2 sum_i lam_i ||phi_i theta - y_i||^2 is that of 1/2 ||Phi~ theta - y~||^2
over unit time, for the rows scaled by sqrt(lam) and stacked.  It applies
them n rows per update: O(N m n^2) flops and ceil(rows / n) n x n eigh calls
for N blocks of m rows, against one update per block and the O(N m n^2 + N n^3)
of one Riccati solve per point.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .engine import _advance
from .model import (
    DataBlock,
    Hyperparams,
    RiccatiState,
    _adopt,
    _check_evaluation_point,
    _new_state,
    validate_block,
    weighted_rows,
)

__all__ = ["RlsState", "rls_add", "rls_remove", "rls_fit"]


class RlsState(RiccatiState):
    """The flow state under its former name, kept for perfbench (a shim)."""

    def theta_star(self, hyper: Hyperparams) -> np.ndarray:
        return self.p.dot(hyper.evaluation_point()) + self.q

    def to_riccati_state(self, r: float | None = None, elapsed: float = 0.0) -> RiccatiState:
        return RiccatiState(p=self.p, q=self.q, r=r, elapsed=elapsed)


def _exact(state: RiccatiState, block: DataBlock, signed_lam: float) -> RlsState:
    validate_block(block, state.n)
    if block.lam == 0.0:
        return _adopt(RlsState, vars(state))  # the same frozen arrays, no eigh

    def run(p, q, r):
        return _kernels.exact_dense(p, q, r, block.phi, block.y, signed_lam).r

    return _advance(state, signed_lam, run, RlsState)


def rls_add(state: RiccatiState, block: DataBlock) -> RlsState:
    """Exact incorporation of one block."""
    return _exact(state, block, block.lam)


def rls_remove(state: RiccatiState, block: DataBlock) -> RlsState:
    """Exact removal of a previously added block; refused with
    ``NumericsError`` when I - lam phi P phi' is not positive definite."""
    return _exact(state, block, -block.lam)


def rls_fit(hyper: Hyperparams, blocks, rows=None) -> RlsState:
    """Exact fit from the fresh state p = diag(1/gamma), q = 0, r = 0.

    The rows of all blocks, scaled by sqrt(lam), are applied as unit-weight
    updates of n rows each, to one (p, q, r) in place: each update is one
    n x n eigh, and the stream is never folded into a single update, whose
    rounding error grows with the number of rows it sums.  ``rows`` is
    ``weighted_rows(blocks, hyper.n)`` when the caller has stacked them
    already.  The evaluation point gamma * theta0 is checked, as by
    ``engine.fit``, before the first update.
    """
    blocks = list(blocks)
    phi, y = weighted_rows(blocks, hyper.n) if rows is None else rows
    _check_evaluation_point(hyper)
    p = np.diag(1.0 / hyper.gamma)
    q = np.zeros(hyper.n)
    r = 0.0
    step = max(hyper.n, 1)
    for start in range(0, len(y), step):
        rows = slice(start, start + step)
        r = _kernels.exact_dense(p, q, r, phi[rows], y[rows], 1.0).r
    return _new_state(RlsState, p, q, r, float(sum(b.lam for b in blocks)))
