"""Primal-dual hybrid gradient for quadratic data fit plus convex regularizer.

Minimizes

    0.5 sum_i lam_i ||phi_i theta - y_i||^2 + R(theta) - <x, theta>

by alternating an exact quadratic primal solve with a dual prox step:

    theta^{l+1} = argmin  data(theta) + ||theta - (theta^l - s_t (w^l - x))||^2 / (2 s_t)
    thbar^{l+1} = 2 theta^{l+1} - theta^l
    w^{l+1}     = prox of R* with step s_w at  w^l + s_w thbar^{l+1}

The primal step is the ridge problem with uniform weight 1/s_t and a moving
bias, so its flow state is integrated once up front and every iterate after
that is a pure bias shift.  Step sizes must satisfy s_t * s_w < 1.

One iteration is three BLAS row combinations and the two in-place prox
ufuncs, O(n^2) flops, and allocates nothing: the theta and w iterates are
rows of one preallocated 2 (chunk + 1) x n buffer, and the primal step is
one n x (n + 1) matrix-vector product with x folded into its last column.
Convergence is checked once per chunk, over all of its residuals at once,
so a solve may compute up to 16 iterations, or about 25% more on long
solves, past the converged one and discard them.  The results (theta, the
residual history and the iteration count) are bit for bit those of the same
arithmetic checked after every step.  That arithmetic rounds differently
from the textbook step written above; after the same number of steps the
two thetas agree to 1e-12 max(1, |theta|_inf) (tested on converged solves).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .engine import IntegrationConfig, fit
from .model import (
    Hyperparams,
    ModelSolution,
    RiccatiState,
    _frozen,
    _frozen_array,
    _new_solution,
    data_fit_value,
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

# Chunk lengths: _FIRST_CHUNK steps, or a quarter of the steps done so far,
# up to _CHUNK.
_FIRST_CHUNK = 16
_CHUNK = 256


@dataclass(frozen=True)
class ProxSpec:
    """Regularizer choice: R(theta) = sum_k w_k |theta_k| or sum_k (w_k/2) theta_k^2."""

    kind: str
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in _PROX_KINDS:
            raise ValueError(f"kind must be one of {_PROX_KINDS}, got {self.kind!r}")
        weights = _frozen_array(self.weights)
        if weights.ndim != 1 or not np.isfinite(weights).all() or (weights <= 0).any():
            raise ValueError("weights must be a 1-D vector of positive reals")
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
        if not all(isinstance(v, numbers.Real) for v in (self.sigma_theta, self.sigma_w)):
            raise ValueError("step sizes must be real numbers")
        st, sw = float(self.sigma_theta), float(self.sigma_w)
        if st <= 0 or sw <= 0 or not math.isfinite(st) or not math.isfinite(sw):
            raise ValueError("step sizes must be positive and finite")
        if st * sw >= 1.0:
            raise ValueError(f"step sizes must satisfy sigma_theta * sigma_w < 1, got {st * sw}")
        object.__setattr__(self, "sigma_theta", st)
        object.__setattr__(self, "sigma_w", sw)
        try:
            whole = operator.index(self.max_iters) >= 1
        except TypeError:
            whole = False
        if not whole:
            raise ValueError("max_iters must be an integer >= 1")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.x_point is not None:
            x = _frozen_array(self.x_point)
            if x.ndim != 1 or not np.isfinite(x).all():
                raise ValueError("x_point must be a finite 1-D vector")
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
    (f1, a1), (f2, a2) = _prox_ops(spec, sigma_w)
    return f2(f1(v, a1), a2)


def _prox_ops(spec: ProxSpec, sigma_w: float):
    """The prox of R* as two ufuncs with their second operands: v -> f2(f1(v, a1), a2)."""
    if spec.kind == "weighted_l1":
        # Same values as np.clip, NaN and -0.0 included, at less dispatch.
        return (np.maximum, -spec.weights), (np.minimum, spec.weights)
    return (np.multiply, spec.weights), (np.divide, spec.weights + float(sigma_w))


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

    theta, history, residual, converged = _iterate(p, q, spec, cfg)

    data_fit = data_fit_value(theta, blocks)
    # Fold the linear term into reg_value so total = data_fit + reg_value.
    reg_value = regularizer_value(spec, theta) - float(x @ theta)
    # _iterate returns a fresh theta and history: both are frozen in place.
    return PdhgResult(
        solution=_new_solution(theta, data_fit, reg_value, data_fit + reg_value),
        iterations=history.shape[0],
        residual=residual,
        converged=converged,
        inner_state=inner_state,
        residual_history=_frozen(history),
    )


def _iterate(p, q, spec: ProxSpec, cfg: PdhgConfig):
    """The iteration from theta = w = 0 until the primal update is at most
    ``cfg.tol`` in max norm, or for ``cfg.max_iters`` steps.

    Returns theta, the residual history, the reported residual and whether it
    converged.  Without convergence, theta and the residual are those of the
    lowest-residual iterate (the first on ties, never a NaN one).

    The iterates are rows of one 2 (chunk + 1) x n buffer, theta_j in row 2j
    and w_j in row 2j + 1, so each linear step is one BLAS row combination:
        y     = [theta_j / sigma_theta - w_j, 1]
        theta = [P | q + P x] y
        w     = prox([-sigma_w, 1, 2 sigma_w] . rows(theta_j, w_j, theta_{j+1}))
    The residuals are taken once per chunk; steps past the one that converged
    are discarded.
    """
    n = q.shape[0]
    tol, x = cfg.tol, cfg.x_point
    # [P | q + P x]: the primal step's affine map, with x folded into its
    # last column (without x, q as it is).
    mat = np.column_stack([p, q if x is None else q + p @ x])
    to_y = np.array([1.0 / cfg.sigma_theta, -1.0])
    to_w = np.array([-cfg.sigma_w, 1.0, 2.0 * cfg.sigma_w])
    (f1, a1), (f2, a2) = _prox_ops(spec, cfg.sigma_w)
    y = np.ones(n + 1)
    y_head = y[:n]
    buf = np.zeros((2 * (min(_CHUNK, cfg.max_iters) + 1), n))
    th = buf[0::2]
    # Per step the row views rows(theta_j, w_j), theta_{j+1},
    # rows(theta_j, w_j, theta_{j+1}) and w_{j+1}, made as the chunks grow.
    rows = []
    history = []
    best_theta, best_residual = np.zeros(n), math.inf
    converged = False
    done = 0
    while not converged and done < cfg.max_iters:
        if done:  # the last iterate of the previous chunk starts this one
            buf[:2] = buf[2 * k : 2 * k + 2]
        k = min(_CHUNK, cfg.max_iters - done, max(_FIRST_CHUNK, done // 4))
        rows += [(buf[i : i + 2], buf[i + 2], buf[i : i + 3], buf[i + 3])
                 for i in range(2 * len(rows), 2 * k, 2)]
        for tw, t_new, twt, w_new in rows[:k]:
            np.dot(to_y, tw, out=y_head)
            np.dot(mat, y, out=t_new)
            np.dot(to_w, twt, out=w_new)
            f1(w_new, a1, out=w_new)
            f2(w_new, a2, out=w_new)
        # initial=0.0 leaves every |.| max as it is and gives 0 when n = 0.
        residuals = np.abs(th[1 : k + 1] - th[:k]).max(axis=1, initial=0.0)
        hit = np.flatnonzero(residuals <= tol)
        if hit.size:
            k = int(hit[0]) + 1
            residuals = residuals[:k]
            converged = True
        else:
            finite = np.where(np.isnan(residuals), math.inf, residuals)
            j = int(np.argmin(finite))
            if finite[j] < best_residual:
                best_theta, best_residual = th[j + 1].copy(), float(finite[j])
        history.append(residuals)
        done += k

    history = np.concatenate(history)
    if converged:
        return th[k].copy(), history, float(history[-1]), True
    return best_theta, history, best_residual, False
