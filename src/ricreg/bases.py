"""Named basis-function families with analytic derivatives.

Families (registered by name, selected by string from the CLI):

* ``poly-trig-10``: {1, x, x^2, x^3, sin(x), sin(5x), sin(8x), sin(9x),
  sin(10x), sin(12x)} on scalar inputs.
* ``fourier-21``: {1} plus sin(2 l pi x), cos(2 l pi x) for l = 1..10,
  the truncated Fourier family on [0, 1].
* ``quad-monomial-3d``: {1, x1, x2, x3, x1^2, x2^2, x3^2, x1 x2, x2 x3,
  x1 x3} on 3-vector inputs (no derivatives).

Each family has one evaluator per function (``eval``, ``d1``, ``d2``). It
takes a grid, a float64 array of k points (shape (k,), or (k, 3) for
``quad-monomial-3d``), and returns the (k, n) matrix, built one column at a
time: one NumPy call per column, not one Python call per point. One point is
a one-point grid: ``feature_matrix(basis, [x])[0]`` is the row of x, with
the bits it has in any larger grid.

Every entry equals what Python's scalar arithmetic gives for that point, so
generated data and evaluations do not depend on how many points a call
takes. The sin/cos columns are ``np.sin``/``np.cos`` of the scaled grid; the
tests check them bit for bit against ``math.sin``/``math.cos``. Powers x^p
with p >= 2 still go through Python's ``float.__pow__`` point by point
(``np.fromiter`` over ``map(pow, ...)``, the call ``x ** p`` makes), because
NumPy's SIMD ``power`` differs from libm's ``pow`` in the last bit (x^3 on 55
of the 1001 points of linspace(0, 10, 1001), with NumPy 2.4 on x86-64);
x^0 = 1 and x^1 = x are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

__all__ = [
    "BasisSet",
    "get_basis",
    "basis_names",
    "feature_matrix",
    "residual_matrix",
]


@dataclass(frozen=True)
class BasisSet:
    """A basis family; ``eval``, ``d1`` and ``d2`` map a float64 grid of k
    points to the (k, n) matrix of values and derivatives."""

    name: str
    n: int
    arity: int
    eval: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray] | None = None
    d2: Callable[[np.ndarray], np.ndarray] | None = None


def _matrix(k: int, columns) -> np.ndarray:
    """The (k, len(columns)) matrix of the columns; a scalar fills its column."""
    out = np.empty((k, len(columns)))
    for j, col in enumerate(columns):
        out[:, j] = col
    return out


def _power(x: np.ndarray, points: list, p: int):
    """The column x^p as Python's ``x ** p`` gives it for each point."""
    if p == 0:
        return 1.0
    if p == 1:
        return x
    return np.fromiter(map(pow, points, repeat(p)), float, len(points))


def _poly_trig() -> BasisSet:
    powers = (0, 1, 2, 3)
    freqs = (1.0, 5.0, 8.0, 9.0, 10.0, 12.0)

    def ev(x: np.ndarray) -> np.ndarray:
        pts = x.tolist()
        return _matrix(
            len(x), [_power(x, pts, p) for p in powers] + [np.sin(f * x) for f in freqs]
        )

    def d1(x: np.ndarray) -> np.ndarray:
        pts = x.tolist()
        return _matrix(
            len(x),
            [p * _power(x, pts, p - 1) if p >= 1 else 0.0 for p in powers]
            + [f * np.cos(f * x) for f in freqs],
        )

    def d2(x: np.ndarray) -> np.ndarray:
        pts = x.tolist()
        return _matrix(
            len(x),
            [p * (p - 1) * _power(x, pts, p - 2) if p >= 2 else 0.0 for p in powers]
            + [-(f**2) * np.sin(f * x) for f in freqs],
        )

    return BasisSet("poly-trig-10", len(powers) + len(freqs), 1, ev, d1, d2)


def _fourier(harmonics: int = 10) -> BasisSet:
    omegas = [2.0 * math.pi * l for l in range(1, harmonics + 1)]

    def ev(x: np.ndarray) -> np.ndarray:
        out = [1.0]
        for w in omegas:
            out.append(np.sin(w * x))
            out.append(np.cos(w * x))
        return _matrix(len(x), out)

    def d1(x: np.ndarray) -> np.ndarray:
        out = [0.0]
        for w in omegas:
            out.append(w * np.cos(w * x))
            out.append(-w * np.sin(w * x))
        return _matrix(len(x), out)

    def d2(x: np.ndarray) -> np.ndarray:
        out = [0.0]
        for w in omegas:
            out.append(-(w**2) * np.sin(w * x))
            out.append(-(w**2) * np.cos(w * x))
        return _matrix(len(x), out)

    return BasisSet(f"fourier-{2 * harmonics + 1}", 2 * harmonics + 1, 1, ev, d1, d2)


def _quad_monomial_3d() -> BasisSet:
    def ev(x: np.ndarray) -> np.ndarray:
        x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
        return _matrix(
            len(x), [1.0, x1, x2, x3, x1 * x1, x2 * x2, x3 * x3, x1 * x2, x2 * x3, x1 * x3]
        )

    return BasisSet("quad-monomial-3d", 10, 3, ev)


_REGISTRY: dict[str, BasisSet] = {
    b.name: b for b in (_poly_trig(), _fourier(), _quad_monomial_3d())
}


def basis_names() -> list[str]:
    return sorted(_REGISTRY)


def get_basis(name: str) -> BasisSet:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown basis {name!r}; available: {', '.join(basis_names())}")


def _grid(basis: BasisSet, xs) -> np.ndarray:
    """``xs`` as a float64 grid of points of the basis's arity."""
    xs = np.asarray(xs, dtype=float)
    if basis.arity == 1:
        if xs.ndim != 1:
            raise ValueError(f"basis {basis.name} takes a scalar input")
    elif xs.ndim != 2 or xs.shape[1] != basis.arity:
        raise ValueError(f"basis {basis.name} takes a length-{basis.arity} input")
    if len(xs) == 0:
        raise ValueError("a basis grid needs at least one point")
    return xs


def feature_matrix(basis: BasisSet, xs) -> np.ndarray:
    """The (k, n) matrix [phi_j(x_i)] of a grid of k points: shape (k,), or
    (k, arity) for a vector basis."""
    return basis.eval(_grid(basis, xs))


def residual_matrix(basis: BasisSet, xs, d_coeff: float, kappa: float) -> np.ndarray:
    """Rows of the steady reaction-diffusion residual D phi_k'' + kappa phi_k
    on a grid of points."""
    if basis.d2 is None:
        raise ValueError(f"basis {basis.name} has no second derivative")
    xs = _grid(basis, xs)
    return d_coeff * basis.d2(xs) + kappa * basis.eval(xs)
