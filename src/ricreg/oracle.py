"""Direct normal-equations solver: the ground truth the other solvers are
checked against.

    theta* = (Gamma + sum_i lam_i phi_i' phi_i)^-1 (Gamma theta0 + sum_i lam_i phi_i' y_i)

The system matrix is SPD whenever the hyper-parameters are valid, so a
Cholesky solve is always applicable; a failed factorization is reported as a
conditioning problem rather than silently regularized.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .model import Hyperparams, ModelSolution, NumericsError, data_fit_value, validate_block

__all__ = ["normal_system", "solve_direct"]


def normal_system(hyper: Hyperparams, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate the SPD system matrix and right-hand side, in block order."""
    a = np.diag(hyper.gamma).astype(float)
    rhs = hyper.evaluation_point().copy()
    for block in blocks:
        validate_block(block, hyper.n)
        if block.lam == 0.0:
            continue
        a += block.lam * (block.phi.T @ block.phi)
        rhs += block.lam * (block.phi.T @ block.y)
    return a, rhs


def solve_direct(hyper: Hyperparams, blocks) -> ModelSolution:
    blocks = list(blocks)
    a, rhs = normal_system(hyper, blocks)
    try:
        factor = cho_factor(a)
    except LinAlgError as exc:
        raise NumericsError(
            "normal-equations matrix is numerically not positive definite"
        ) from exc
    theta = cho_solve(factor, rhs)
    data_fit = data_fit_value(theta, blocks)
    diff = theta - hyper.theta0
    reg_value = 0.5 * float(hyper.gamma @ (diff * diff))
    return ModelSolution(
        theta_star=theta,
        data_fit=data_fit,
        reg_value=reg_value,
        total_loss=data_fit + reg_value,
    )
