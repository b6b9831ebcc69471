"""Direct normal-equations solver: the ground truth the other solvers are
checked against.

    theta* = (Gamma + sum_i lam_i phi_i' phi_i)^-1 (Gamma theta0 + sum_i lam_i phi_i' y_i)

The system matrix is SPD whenever the hyper-parameters are valid, so it is
solved through its Cholesky factor L (``numpy.linalg.cholesky``) and two
solves against L and L'.  The factorization is the SPD test: a matrix that
is numerically not positive definite is reported as ``NumericsError``
rather than silently regularized.  Only NumPy is needed.
"""

from __future__ import annotations

import numpy as np

from .model import Hyperparams, ModelSolution, NumericsError, _fitted_solution, weighted_rows

__all__ = ["normal_system", "solve_direct", "spd_cholesky"]


def normal_system(hyper: Hyperparams, blocks) -> tuple[np.ndarray, np.ndarray]:
    """The SPD system matrix diag(gamma) + Phi~' Phi~ and right-hand side
    gamma * theta0 + Phi~' y~, from the sqrt(lam)-weighted stacked rows."""
    phi, y = weighted_rows(blocks, hyper.n)
    return np.diag(hyper.gamma) + phi.T @ phi, hyper.evaluation_point() + phi.T @ y


def spd_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of the normal-equations matrix, L L' = a;
    ``NumericsError`` if ``a`` is not finite or numerically not positive
    definite (NumPy's factorization passes inf and NaN through)."""
    if not np.isfinite(a).all():
        raise NumericsError("normal-equations matrix is not finite: the data overflow")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            "normal-equations matrix is numerically not positive definite"
        ) from exc


def solve_direct(hyper: Hyperparams, blocks) -> ModelSolution:
    blocks = list(blocks)
    a, rhs = normal_system(hyper, blocks)
    lower = spd_cholesky(a)
    theta = np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))
    return _fitted_solution(theta, hyper, blocks)
