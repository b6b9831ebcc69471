"""Primal-dual hybrid gradient for quadratic data fit plus convex regularizer.

Minimizes

    0.5 sum_i lam_i ||phi_i theta - y_i||^2 + R(theta) - <x, theta>

by alternating an exact quadratic primal solve with a dual prox step:

    theta^{l+1} = argmin  data(theta) + ||theta - (theta^l - s_t (w^l - x))||^2 / (2 s_t)
    thbar^{l+1} = 2 theta^{l+1} - theta^l
    w^{l+1}     = prox of R* with step s_w at  w^l + s_w thbar^{l+1}

The primal step is the ridge problem with uniform weight 1/s_t and a moving
bias, so its flow state is integrated once up front and every iterate after
that is a pure bias shift (two matrix-vector products).  Step sizes must
satisfy s_t * s_w < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import IntegrationConfig, fit
from .model import (
    Hyperparams,
    ModelSolution,
    PdhgState,
    RiccatiState,
    validate_block,
)

__all__ = [
    "ProxSpec",
    "PdhgConfig",
    "PdhgResult",
    "prox_dual",
    "pdhg_solve",
    "regularizer_value",
    "sparsity_pattern",
]

_PROX_KINDS = ("weighted_l1", "weighted_l2_squared")


@dataclass(frozen=True)
class ProxSpec:
    """Regularizer choice: R(theta) = sum_k w_k |theta_k| or sum_k (w_k/2) theta_k^2."""

    kind: str
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in _PROX_KINDS:
            raise ValueError(f"kind must be one of {_PROX_KINDS}, got {self.kind!r}")
        weights = np.array(self.weights, dtype=float, copy=True)
        if weights.ndim != 1 or not np.isfinite(weights).all() or (weights <= 0).any():
            raise ValueError("weights must be a 1-D vector of positive reals")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class PdhgConfig:
    sigma_theta: float = 0.5
    sigma_w: float = 0.5
    max_iters: int = 100000
    tol: float = 1e-10
    x_point: np.ndarray | None = None

    def __post_init__(self):
        st, sw = float(self.sigma_theta), float(self.sigma_w)
        if st <= 0 or sw <= 0 or not math.isfinite(st) or not math.isfinite(sw):
            raise ValueError("step sizes must be positive and finite")
        if st * sw >= 1.0:
            raise ValueError(f"step sizes must satisfy sigma_theta * sigma_w < 1, got {st * sw}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.x_point is not None:
            x = np.array(self.x_point, dtype=float, copy=True)
            if x.ndim != 1 or not np.isfinite(x).all():
                raise ValueError("x_point must be a finite 1-D vector")
            x.flags.writeable = False
            object.__setattr__(self, "x_point", x)


def prox_dual(spec: ProxSpec, v, sigma_w: float) -> np.ndarray:
    """Proximal point of the convex conjugate R* with step ``sigma_w`` at ``v``.

    For the weighted l1 norm, R* is the indicator of the box |w_k| <= weight_k
    and the prox is a componentwise clamp (independent of the step).  For the
    weighted squared l2 norm, R*(w) = sum w_k^2 / (2 weight_k) and the prox is
    the componentwise shrinkage v_k * weight_k / (weight_k + sigma_w).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.n,):
        raise ValueError(f"v has shape {v.shape}, expected ({spec.n},)")
    if spec.kind == "weighted_l1":
        # Same values as np.clip, NaN and -0.0 included, at less dispatch.
        return np.minimum(np.maximum(v, -spec.weights), spec.weights)
    return v * spec.weights / (spec.weights + float(sigma_w))


def regularizer_value(spec: ProxSpec, theta) -> float:
    theta = np.asarray(theta, dtype=float)
    if spec.kind == "weighted_l1":
        return float(spec.weights @ np.abs(theta))
    return 0.5 * float(spec.weights @ (theta * theta))


def sparsity_pattern(theta, threshold: float = 1e-8) -> np.ndarray:
    """Presentation-only thresholding: |theta_k| < threshold reported as 0."""
    theta = np.asarray(theta, dtype=float)
    out = theta.copy()
    out[np.abs(out) < threshold] = 0.0
    return out


@dataclass(frozen=True)
class PdhgResult:
    solution: ModelSolution
    state: PdhgState
    iterations: int
    residual: float
    converged: bool
    inner_state: RiccatiState
    residual_history: np.ndarray


def inner_hyperparams(n: int, sigma_theta: float) -> Hyperparams:
    """Ridge weights of the primal subproblem: gamma = 1/sigma_theta, zero bias."""
    return Hyperparams(gamma=np.full(n, 1.0 / sigma_theta), theta0=np.zeros(n))


def pdhg_solve(
    n: int,
    blocks,
    spec: ProxSpec,
    cfg: PdhgConfig,
    riccati_cfg: IntegrationConfig,
    inner_state: RiccatiState | None = None,
) -> PdhgResult:
    """Run the iteration until the primal update is below ``cfg.tol`` in max norm.

    The flow state for the primal subproblem is computed once (or taken from
    ``inner_state``, e.g. a previous run's, since it does not depend on the
    bias).  On non-convergence the lowest-residual iterate is returned with
    ``converged=False``.
    """
    blocks = list(blocks)
    for block in blocks:
        validate_block(block, n)
    if spec.n != n:
        raise ValueError(f"regularizer has {spec.n} weights, expected {n}")
    x = cfg.x_point if cfg.x_point is not None else np.zeros(n)
    if x.shape != (n,):
        raise ValueError(f"x_point has shape {x.shape}, expected ({n},)")

    if inner_state is None:
        inner_state = fit(inner_hyperparams(n, cfg.sigma_theta), blocks, riccati_cfg)
    elif inner_state.n != n:
        raise ValueError("inner_state dimension mismatch")
    p, q = inner_state.p, inner_state.q

    sigma_theta, sigma_w, tol = cfg.sigma_theta, cfg.sigma_w, cfg.tol
    theta = np.zeros(n)
    w = np.zeros(n)
    theta_bar = theta
    best_theta, best_residual = theta, math.inf
    residuals = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        bias = theta - sigma_theta * (w - x)
        # Minimizer of the ridge subproblem: P (Gamma bias) + q with
        # Gamma = I / sigma_theta; only the evaluation point moves.
        theta_new = p.dot(bias / sigma_theta) + q
        theta_bar = 2.0 * theta_new - theta
        w = prox_dual(spec, w + sigma_w * theta_bar, sigma_w)
        residual = float(np.abs(theta_new - theta).max()) if n else 0.0
        theta = theta_new
        residuals.append(residual)
        if residual < best_residual:
            best_theta, best_residual = theta, residual
        if residual <= tol:
            converged = True
            break

    if not converged:
        theta = best_theta
    final_residual = residuals[-1] if converged else best_residual

    data_fit = 0.0
    for block in blocks:
        resid = block.phi @ theta - block.y
        data_fit += 0.5 * block.lam * float(resid @ resid)
    # Fold the linear term into reg_value so total = data_fit + reg_value.
    reg_value = regularizer_value(spec, theta) - float(x @ theta)
    solution = ModelSolution(
        theta_star=theta,
        data_fit=data_fit,
        reg_value=reg_value,
        total_loss=data_fit + reg_value,
    )
    state = PdhgState(
        theta=theta,
        w=w,
        theta_bar=theta_bar,
        sigma_theta=cfg.sigma_theta,
        sigma_w=cfg.sigma_w,
        iteration=iterations,
    )
    return PdhgResult(
        solution=solution,
        state=state,
        iterations=iterations,
        residual=final_residual,
        converged=converged,
        inner_state=inner_state,
        residual_history=np.asarray(residuals),
    )
