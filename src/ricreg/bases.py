"""Named basis-function families with analytic derivatives.

Families (registered by name, selected by string from the CLI):

* ``poly-trig-10``: {1, x, x^2, x^3, sin(x), sin(5x), sin(8x), sin(9x),
  sin(10x), sin(12x)} on scalar inputs.
* ``fourier-21``: {1} plus sin(2 l pi x), cos(2 l pi x) for l = 1..10,
  the truncated Fourier family on [0, 1].
* ``quad-monomial-3d``: {1, x1, x2, x3, x1^2, x2^2, x3^2, x1 x2, x2 x3,
  x1 x3} on 3-vector inputs (no derivatives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BasisSet",
    "get_basis",
    "basis_names",
    "feature_row",
    "residual_row",
    "feature_matrix",
]


@dataclass(frozen=True)
class BasisSet:
    name: str
    n: int
    arity: int
    eval: Callable[..., np.ndarray]
    d1: Callable[..., np.ndarray] | None = None
    d2: Callable[..., np.ndarray] | None = None


def _poly_trig() -> BasisSet:
    powers = (0, 1, 2, 3)
    freqs = (1.0, 5.0, 8.0, 9.0, 10.0, 12.0)

    def ev(x: float) -> np.ndarray:
        x = float(x)
        return np.array(
            [x**p for p in powers] + [math.sin(f * x) for f in freqs]
        )

    def d1(x: float) -> np.ndarray:
        x = float(x)
        return np.array(
            [p * x ** (p - 1) if p >= 1 else 0.0 for p in powers]
            + [f * math.cos(f * x) for f in freqs]
        )

    def d2(x: float) -> np.ndarray:
        x = float(x)
        return np.array(
            [p * (p - 1) * x ** (p - 2) if p >= 2 else 0.0 for p in powers]
            + [-(f**2) * math.sin(f * x) for f in freqs]
        )

    return BasisSet("poly-trig-10", len(powers) + len(freqs), 1, ev, d1, d2)


def _fourier(harmonics: int = 10) -> BasisSet:
    omegas = [2.0 * math.pi * l for l in range(1, harmonics + 1)]

    def ev(x: float) -> np.ndarray:
        x = float(x)
        out = [1.0]
        for w in omegas:
            out.append(math.sin(w * x))
            out.append(math.cos(w * x))
        return np.array(out)

    def d1(x: float) -> np.ndarray:
        x = float(x)
        out = [0.0]
        for w in omegas:
            out.append(w * math.cos(w * x))
            out.append(-w * math.sin(w * x))
        return np.array(out)

    def d2(x: float) -> np.ndarray:
        x = float(x)
        out = [0.0]
        for w in omegas:
            out.append(-(w**2) * math.sin(w * x))
            out.append(-(w**2) * math.cos(w * x))
        return np.array(out)

    return BasisSet(f"fourier-{2 * harmonics + 1}", 2 * harmonics + 1, 1, ev, d1, d2)


def _quad_monomial_3d() -> BasisSet:
    def ev(x) -> np.ndarray:
        x1, x2, x3 = (float(v) for v in x)
        return np.array(
            [1.0, x1, x2, x3, x1 * x1, x2 * x2, x3 * x3, x1 * x2, x2 * x3, x1 * x3]
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


def _check_arity(basis: BasisSet, x) -> None:
    if basis.arity == 1:
        if np.ndim(x) != 0:
            raise ValueError(f"basis {basis.name} takes a scalar input")
    elif np.shape(x) != (basis.arity,):
        raise ValueError(f"basis {basis.name} takes a length-{basis.arity} input")


def feature_row(basis: BasisSet, x) -> np.ndarray:
    """[phi_1(x), ..., phi_n(x)]."""
    _check_arity(basis, x)
    return basis.eval(x)


def residual_row(basis: BasisSet, x: float, d_coeff: float, kappa: float) -> np.ndarray:
    """Row of the steady reaction-diffusion residual: D phi_k'' + kappa phi_k."""
    if basis.d2 is None:
        raise ValueError(f"basis {basis.name} has no second derivative")
    _check_arity(basis, x)
    return d_coeff * basis.d2(x) + kappa * basis.eval(x)


def feature_matrix(basis: BasisSet, xs) -> np.ndarray:
    """Stack feature rows for a 1-D grid of points.

    Each row is ``basis.eval`` of one point, bit-identical to ``feature_row``.
    """
    if basis.arity != 1:
        raise ValueError(f"basis {basis.name} takes a length-{basis.arity} input")
    rows = [basis.eval(x) for x in np.asarray(xs).tolist()]
    if not rows:
        raise ValueError("feature_matrix needs at least one point")
    return np.array(rows)
