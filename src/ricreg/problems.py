"""Deterministic generators for the benchmark problems, plus error metrics.

Every generator is a pure function of its arguments; randomness comes from
:class:`ricreg.rng.Xoshiro256pp` only, so the same seed reproduces the same
byte stream on any platform.  Noise deviates are drawn even when the noise
scale is zero, keeping sample locations independent of the noise setting.
Each stream (each KO equation) is the views of one checked row stack: bit for
bit one constructor call per row, with its error for a bad value.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .bases import feature_matrix, get_basis, residual_matrix
from .model import _block_views
from .rng import Xoshiro256pp

__all__ = [
    "GeneratedProblem",
    "KoProblem",
    "gen_sin10x",
    "gen_reaction_diffusion",
    "gen_ko",
    "ko_rhs",
    "simulate_quadratic_system",
    "relative_l2",
    "relative_l1",
    "REACTION_DIFFUSIVITY",
    "REACTION_RATE",
]

REACTION_DIFFUSIVITY = 0.01
REACTION_RATE = -1.0

KO_INITIAL = np.array([1.0, 0.8, 0.5])
KO_HORIZON = 10.0


@dataclass(frozen=True)
class GeneratedProblem:
    """Blocks plus the reference functions and evaluation grid they came from."""

    blocks: tuple
    basis_name: str
    truth: dict = field(repr=False)
    eval_grid: np.ndarray = field(repr=False)
    rng_seed: int = 0


def _draw_points(rng: Xoshiro256pp, count: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """``count`` locations ``scale * uniform`` and their gaussian noise
    deviates, drawn in the order location, deviate for each point."""
    xs, eps = np.empty(count), np.empty(count)
    for i in range(count):
        xs[i] = scale * rng.uniform()
        eps[i] = rng.gaussian()
    return xs, eps


def gen_sin10x(count: int, seed: int, noise_scale: float = 1.0) -> GeneratedProblem:
    """Scalar regression stream: y = sin(10 x) + noise, x uniform on [0, 10].

    Per point the generator draws one uniform (the location) and one gaussian
    (the noise), in that order.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    basis = get_basis("poly-trig-10")
    xs, eps = _draw_points(Xoshiro256pp(seed), count, 10.0)
    blocks = []
    if count:
        ys = np.sin(10.0 * xs) + noise_scale * eps
        blocks = _block_views(feature_matrix(basis, xs), ys, [1.0] * count, range(count + 1))
    return GeneratedProblem(
        blocks=tuple(blocks),
        basis_name=basis.name,
        truth={"y": lambda x: np.sin(10.0 * np.asarray(x, dtype=float))},
        eval_grid=np.linspace(0.0, 10.0, 1001),
        rng_seed=seed,
    )


def _reaction_solution(x):
    return np.sin(2.0 * math.pi * np.asarray(x, dtype=float)) ** 3


def _reaction_source(x):
    # u = sin^3(w x) gives u'' = 3 w^2 (2 sin(w x) - 3 sin^3(w x)).
    w = 2.0 * math.pi
    s = np.sin(w * np.asarray(x, dtype=float))
    u2 = 3.0 * w * w * (2.0 * s - 3.0 * s**3)
    return REACTION_DIFFUSIVITY * u2 + REACTION_RATE * s**3


def gen_reaction_diffusion(
    count: int, seed: int, noise_scale: float = 0.1, lambda_b: float = 1.0
) -> GeneratedProblem:
    """Steady reaction-diffusion residual rows plus two boundary rows.

    ``count`` residual rows are built at uniform random x in [0, 1] against
    noisy source measurements (one uniform then one gaussian per point); the
    two boundary rows at x = 0 and x = 1 are noiseless, target 0, and carry
    weight ``lambda_b``.  They are appended after the residual rows.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if lambda_b < 0:
        raise ValueError("lambda_b must be >= 0")
    basis = get_basis("fourier-21")
    xs, eps = _draw_points(Xoshiro256pp(seed), count, 1.0)
    rows, targets = [feature_matrix(basis, [0.0, 1.0])], [0.0, 0.0]
    if count:
        rows.insert(0, residual_matrix(basis, xs, REACTION_DIFFUSIVITY, REACTION_RATE))
        # The source per point: on a whole array NumPy's power (s**3) can
        # round differently from the scalar one.
        targets[:0] = [float(_reaction_source(x)) + noise_scale * e
                       for x, e in zip(xs.tolist(), eps.tolist())]
    blocks = _block_views(np.concatenate(rows), np.array(targets, dtype=float),
                          [1.0] * count + [float(lambda_b)] * 2, range(count + 3))
    return GeneratedProblem(
        blocks=tuple(blocks),
        basis_name=basis.name,
        truth={"u": _reaction_solution, "f": _reaction_source},
        eval_grid=np.linspace(0.0, 1.0, 257),
        rng_seed=seed,
    )


def ko_rhs(x) -> np.ndarray:
    """Right-hand side of the three-species quadratic interaction system."""
    x1, x2, x3 = (float(v) for v in x)
    return np.array([x2 * x3, x1 * x3, -2.0 * x1 * x2])


@dataclass(frozen=True)
class KoProblem:
    """Sparse-identification dataset for the quadratic interaction system."""

    equations: tuple  # three tuples of DataBlock, one per state equation
    basis_name: str
    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)  # trajectory on the solver grid
    eval_grid: np.ndarray = field(repr=False)
    solver_h: float = 1e-4
    fd_h: float = 1e-3

    def trajectory_on(self, ts) -> np.ndarray:
        """Linear interpolation of the reference trajectory at times ``ts``."""
        ts = np.asarray(ts, dtype=float)
        return np.stack(
            [np.interp(ts, self.times, self.states[:, i]) for i in range(3)], axis=1
        )


def gen_ko(
    grid_count: int = 1000, solver_h: float = 1e-4, fd_h: float = 1e-3
) -> KoProblem:
    """Integrate the quadratic system on [0, 10] and emit derivative-fitting rows.

    The trajectory is computed with fixed-step RK4 at ``solver_h``; sample
    times are ``grid_count`` evenly spaced solver-grid points inside
    [fd_h, 10 - fd_h], and each target is the central difference
    (x(t + fd_h) - x(t - fd_h)) / (2 fd_h).  ``fd_h`` must be a multiple of
    ``solver_h``.
    """
    if solver_h <= 0 or fd_h <= 0:
        raise ValueError("solver_h and fd_h must be positive")
    if grid_count < 1:
        raise ValueError("grid_count must be >= 1")
    offset = int(round(fd_h / solver_h))
    if offset < 1 or abs(offset * solver_h - fd_h) > 1e-9 * fd_h:
        raise ValueError("fd_h must be a positive multiple of solver_h")
    nsteps = int(round(KO_HORIZON / solver_h))
    if abs(nsteps * solver_h - KO_HORIZON) > 1e-9:
        raise ValueError("solver_h must divide the horizon")
    if 2 * offset >= nsteps:
        raise ValueError("fd stencil does not fit inside the integration window")

    states = _kernels.integrate_ko(KO_INITIAL, solver_h, nsteps)
    times = np.arange(nsteps + 1) * solver_h
    sample_idx = np.round(np.linspace(offset, nsteps - offset, grid_count)).astype(int)

    basis = get_basis("quad-monomial-3d")
    rows = feature_matrix(basis, states[sample_idx])
    dys = (states[sample_idx + offset] - states[sample_idx - offset]) / (2.0 * fd_h)
    # One stack per equation, so that no two blocks share memory.
    equations = tuple(
        tuple(_block_views(rows.copy(), dys[:, i].copy(), [1.0] * grid_count,
                           range(grid_count + 1)))
        for i in range(3)
    )
    return KoProblem(
        equations=equations,
        basis_name=basis.name,
        times=times,
        states=states,
        eval_grid=np.linspace(0.0, KO_HORIZON, 10001),
        solver_h=solver_h,
        fd_h=fd_h,
    )


def simulate_quadratic_system(coeffs, x0, horizon: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4-integrate dx_i/dt = coeffs[i] . phi(x) for the quadratic 3-D basis.

    Returns (times, states); used to replay an identified system against the
    reference trajectory.  The right-hand side is summed in Python floats
    straight from ``coeffs``, term by term in the basis order, with no feature
    row built per stage.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (3, 10):
        raise ValueError(f"coeffs must be 3 x 10, got {coeffs.shape}")
    rows = coeffs.tolist()
    h = float(h)
    half, sixth = 0.5 * h, h / 6.0

    def rhs(x1, x2, x3):
        # The quad-monomial-3d basis: 1, x1, x2, x3, x1^2, x2^2, x3^2, x1 x2, x2 x3, x1 x3.
        phi = (1.0, x1, x2, x3, x1 * x1, x2 * x2, x3 * x3, x1 * x2, x2 * x3, x1 * x3)
        return [sum(map(operator.mul, row, phi)) for row in rows]

    nsteps = int(round(horizon / h))
    out = np.empty((nsteps + 1, 3))
    out[0] = x = np.asarray(x0, dtype=float).tolist()
    for i in range(nsteps):
        k1 = rhs(*x)
        k2 = rhs(*[xi + half * ki for xi, ki in zip(x, k1)])
        k3 = rhs(*[xi + half * ki for xi, ki in zip(x, k2)])
        k4 = rhs(*[xi + h * ki for xi, ki in zip(x, k3)])
        x = [
            xi + sixth * (a + 2.0 * b + 2.0 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
        ]
        out[i + 1] = x
    return np.arange(nsteps + 1) * h, out


def relative_l2(values, reference) -> float:
    """||values - reference||_2 / ||reference||_2."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if values.shape != reference.shape:
        raise ValueError("shape mismatch")
    denom = float(np.linalg.norm(reference))
    if denom == 0.0:
        raise ValueError("reference is identically zero")
    return float(np.linalg.norm(values - reference)) / denom


def relative_l1(a, b) -> float:
    """sum |a - b| / sum |b|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    denom = float(np.sum(np.abs(b)))
    if denom == 0.0:
        raise ValueError("reference is identically zero")
    return float(np.sum(np.abs(a - b))) / denom
