"""Closed-form recursive least squares on the same sufficient statistic.

Each update applies the Woodbury identity to the inverse-information recursion
P_new^-1 = P^-1 + lam * phi' phi, so the state after any block sequence equals
the exact continuous flow sampled at the block boundaries:

    P_new = P - lam P phi' (I + lam phi P phi')^-1 phi P
    q_new = q + lam P_new phi' y - lam P phi' (I + lam phi P phi')^-1 phi q

Removal is the algebraic inverse (lam -> -lam), valid only while
I - lam phi P phi' stays positive definite.  No forgetting factor and no
square-root filtering: updates are exact but inherit the usual numerical
fragility of plain RLS on badly conditioned streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .model import DataBlock, Hyperparams, NumericsError, RiccatiState, validate_block

__all__ = ["RlsState", "rls_new", "rls_add", "rls_remove", "rls_fit"]


@dataclass(frozen=True)
class RlsState:
    """Covariance-style matrix p (n x n SPD) and accumulator vector q (n)."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float, copy=True)
        q = np.array(self.q, dtype=float, copy=True)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or q.shape != (p.shape[0],):
            raise ValueError(f"inconsistent shapes p {p.shape}, q {q.shape}")
        if not np.isfinite(p).all() or not np.isfinite(q).all():
            raise NumericsError("non-finite entries in state")
        p.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def theta_star(self, hyper: Hyperparams) -> np.ndarray:
        """Same extraction formula as the flow state: P (gamma*theta0) + q."""
        return self.p @ hyper.evaluation_point() + self.q

    def to_riccati_state(self, r: float | None = None, elapsed: float = 0.0) -> RiccatiState:
        return RiccatiState(p=self.p, q=self.q, r=r, elapsed=elapsed)


def rls_new(hyper: Hyperparams) -> RlsState:
    """Fresh state matching the flow's initial condition: p = diag(1/gamma), q = 0."""
    return RlsState(p=np.diag(1.0 / hyper.gamma), q=np.zeros(hyper.n))


def _woodbury(state: RlsState, block: DataBlock, signed_lam: float, context: str) -> RlsState:
    phi = block.phi
    u = state.p @ phi.T
    core = np.eye(block.m) + signed_lam * (phi @ u)
    try:
        factor = cho_factor(core)
    except LinAlgError as exc:
        raise NumericsError(context) from exc
    gain = cho_solve(factor, u.T)  # (I + lam phi P phi')^-1 phi P
    p_new = state.p - signed_lam * (u @ gain)
    p_new = 0.5 * (p_new + p_new.T)
    q_new = (
        state.q
        + signed_lam * (p_new @ (phi.T @ block.y))
        - signed_lam * (u @ cho_solve(factor, phi @ state.q))
    )
    if not np.isfinite(p_new).all() or not np.isfinite(q_new).all():
        raise NumericsError(context)
    return RlsState(p=p_new, q=q_new)


def rls_add(state: RlsState, block: DataBlock) -> RlsState:
    """Exact incorporation of one block."""
    validate_block(block, state.n)
    if block.lam == 0.0:
        return state
    return _woodbury(state, block, block.lam, "ill-conditioned update solve")


def rls_remove(state: RlsState, block: DataBlock) -> RlsState:
    """Exact removal of a previously added block.

    Fails when I - lam phi P phi' is not positive definite, which means the
    block was never incorporated (or arithmetic has degraded too far).
    """
    validate_block(block, state.n)
    if block.lam == 0.0:
        return state
    return _woodbury(
        state,
        block,
        -block.lam,
        "block not removable: I - lam phi P phi' is not positive definite",
    )


def rls_fit(hyper: Hyperparams, blocks) -> RlsState:
    state = rls_new(hyper)
    for block in blocks:
        state = rls_add(state, block)
    return state
