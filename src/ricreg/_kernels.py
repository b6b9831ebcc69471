"""Inner integration loops: plain Python and NumPy, no JIT.

One update, two integrals.  With U = P0 phi^T and G = phi U = V diag(a) V^T,
the flow of a data block over a signed duration T is

    P = P0 - W diag(c) W^T,  q = q0 - W (bh * c),  r = r0 - sum bh^2 c / 2

for W = U V and bh = V^T (phi q0 - y), where c_i is the integral of s^2 for
ds/dt = -a_i s^2, s(0) = 1.  Each kernel is one m x m eigh (``_factors``),
the m integrals, and one rank-m update in place (``_update``).  The RK4
kernels integrate with ``_rk4_decay`` (m scalar loops, equal to the per-step
references in ``tests/test_kernels.py`` to rounding); ``exact_dense`` takes
the closed form c = T / (1 + a T), the Woodbury update of ``ricreg.rls``, and
refuses a run with some 1 + a T <= 0.  The diagonal flow with weights d >= 0
is the data flow of phi = diag(sqrt(d)), restricted to the rows with d > 0,
and y = 0, so ``rk4_dense`` and ``rk4_diag`` share one body (``_rk4``).  The
only other loop is ``integrate_ko``, a scalar RK4 loop over the three floats
of the KO trajectory.

Vector fields, for feature matrix ``phi`` (m x n) and target ``y`` (m):

    dP/dt = -(phi P)^T (phi P)
    dq/dt = -(phi P)^T (phi q - y)
    dr/dt = -0.5 ||phi q - y||^2

and, for a diagonal quadratic term with weights ``d`` (n):

    dP/dt = -P^T diag(d) P
    dq/dt = -P^T (d * q)
    dr/dt = -0.5 sum_k d_k q_k^2

Each RK4 kernel advances (p, q, r) in place by ``nsteps`` classical 4-stage
Runge-Kutta steps of signed size ``h``, the final one of size ``last`` when
given.  Every kernel returns a ``Run``: the updated r and the factors W and
bh.  Every run advances r (m more products bh_i^2 c_i); the engine drops it
for a state without the loss accumulator.  P always leaves a kernel exactly
symmetric.  A kernel either raises ``NumericsError`` before it writes to p or
q, or writes an update whose integrals c are all finite: a backward RK4 run is
checked before its steps (``_check_backward``), an RK4 run that blows up is
refused after them, and ``exact_dense`` refuses a run past the blow-up time.
Whether p, q and r come out finite is checked by what holds them: the new
state, or the trace point.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import NumericsError

# There is no JIT backend; perfbench/run.py reports this in its provenance.
_USE_NUMBA = False


def _rk4_decay(a, h, nsteps, last, trail=None):
    # Classical RK4 on ds/dt = -a s^2, s(0) = 1: nsteps - 1 steps of size h,
    # then one of size last, written through the stage factors m_j (which
    # depend on g = step a s / 2 alone).  Returns c = sum_k (step_k / 6)
    # (m1^2 + 2 m2^2 + 2 m3^2 + m4^2) s_k^2, the RK4 integral of s^2 with
    # s = 1 - c a, or NaN if the run blows up.  ``trail`` (a float64
    # memoryview of length nsteps - 1), if given, receives at k the running
    # sum after step k + 1 of size h, in units of h/6.
    s = 1.0
    c = 0.0
    inf = math.inf
    for step, count, record in ((h, nsteps - 1, trail), (last, 1, None)):
        half_ha = 0.5 * step * a
        ha6 = step * a / 6.0
        acc = 0.0
        for k in range(count):
            g = half_ha * s
            m2 = 1.0 - g
            m2sq = m2 * m2
            m3 = 1.0 - g * m2sq
            m3sq = m3 * m3
            m4 = 1.0 - (g + g) * m3sq
            w = (1.0 + 2.0 * (m2sq + m3sq) + m4 * m4) * (s * s)
            acc += w
            if not acc < inf:  # w >= 0, so acc only grows: this catches inf and NaN
                return math.nan
            s -= ha6 * w
            if record is not None:
                record[k] = acc
        c += acc * (step / 6.0)
    return c


def _check_backward(lam, h, nsteps, last):
    # Refuse a backward run (h < 0) of duration T that RK4 cannot follow.  Along
    # the eigenvector of G with eigenvalue a the exact flow grows like
    # 1 / (1 - a t): a T >= 1 passes its blow-up (what the run removes was never
    # added), and |h| a / (1 - a T) > 2 is the stability limit h g p <= 2 at the
    # end of the run.  Both only tighten as a grows, so the largest a decides.
    a = max(lam, default=0.0)
    duration = -h * (nsteps - 1) - last
    step = -h if nsteps > 1 else -last
    if a * duration >= 1.0:
        raise NumericsError(
            f"backward run of length {duration:.6g} reaches the blow-up time "
            f"{1.0 / a:.6g} of this state: what it removes was never added, and no "
            "smaller step size can follow it"
        )
    if step * a > 2.0 * (1.0 - a * duration):
        limit = 2.0 * (1.0 - a * duration) / a
        raise NumericsError(
            f"backward run is too stiff for RK4 at step size {step:.3g} (stable up "
            f"to {limit:.2g}); use a smaller step size, e.g. {0.1 * limit:.2g}"
        )


class Run(NamedTuple):
    """What one run of a kernel returns: the updated r, the factors W and bh
    of its row-space update, and, for ``rk4_diag(..., trail=True)``, the
    running integrals c after each step of size h, one row per step."""

    r: float
    w: np.ndarray
    bh: np.ndarray
    running: np.ndarray | None = None


def _factors(p, q, phi, y):
    # The eigenvalues a of G (a list), W, bh and the loss rate of the
    # residual outside the row space of phi.  (``.dot`` in place of ``@``
    # skips the ufunc dispatch that dominates the calls of small blocks.)
    m, n = phi.shape
    loss_rate = 0.0
    if m > n:
        # The flow sees phi only through phi^T phi, phi^T y and ||y||^2, so
        # phi = Q R gives the same flow with R and Q^T y, plus the constant
        # loss rate of the residual y - Q Q^T y, which integrates exactly.
        basis, phi = np.linalg.qr(phi)
        y_in = basis.T @ y
        rest = y - basis @ y_in
        loss_rate = float(rest @ rest)
        y = y_in
    u = p.T.dot(phi.T)
    b = phi.dot(q) - y
    g = phi.dot(u)
    if g.shape[0] == 1:
        return g[0].tolist(), u, b, loss_rate
    a, v = np.linalg.eigh(0.5 * (g + g.T))
    return a.tolist(), u.dot(v), b.dot(v), loss_rate


def _update(p, q, r, w, bh, c, loss):
    # The update of the module docstring in place, plus the residual ``loss``;
    # returns the new r.  Every c_i is finite.
    wc = w * np.array(c)
    p -= wc.dot(w.T)
    # One pass over the result makes both p0 and the update symmetric.
    p[:] = 0.5 * (p + p.T)
    q -= wc.dot(bh)
    fit_loss = sum([bi * bi * ci for bi, ci in zip(bh.tolist(), c)])
    return r - 0.5 * (fit_loss + loss)


def _rk4_integrals(a, h, nsteps, last, trail=False):
    # c_i = _rk4_decay(a_i): RK4 commutes with the orthogonal change of
    # variables.  With ``trail``, also the running integrals of ``Run``.
    if h < 0.0:
        _check_backward(a, h, nsteps, last)
    running = np.empty((len(a), nsteps - 1)) if trail else None
    rows = map(memoryview, running) if trail else [None] * len(a)
    c = [_rk4_decay(ai, h, nsteps, last, row) for ai, row in zip(a, rows)]
    if any(map(math.isnan, c)):
        what = ("backward integration blew up" if h < 0.0
                else "integration produced non-finite values")
        raise NumericsError(f"{what}; use a smaller step size")
    if trail:
        running = running.T
        running *= h / 6.0
    return c, running


def _rk4(p, q, r, phi, y, h, nsteps, last=None, trail=False):
    # The RK4 run of both kernels, on the data flow of (phi, y).
    h, nsteps = float(h), int(nsteps)
    last = h if last is None else float(last)
    a, w, bh, loss_rate = _factors(p, q, phi, y)
    c, running = _rk4_integrals(a, h, nsteps, last, trail)
    duration = h * (nsteps - 1) + last
    return Run(_update(p, q, r, w, bh, c, loss_rate * duration), w, bh, running)


def rk4_dense(p, q, r, phi, y, h, nsteps, last=None):
    return _rk4(p, q, r, phi, y, h, nsteps, last)


def exact_dense(p, q, r, phi, y, duration):
    # The exact flow over the signed ``duration`` T.  Some 1 + a T <= 0 is a
    # run past the blow-up time (``_check_backward``); a NaN a is refused too.
    a, w, bh, loss_rate = _factors(p, q, phi, y)
    dens = [1.0 + ai * duration for ai in a]
    if not all(den > 0.0 for den in dens):
        raise NumericsError(
            "block not removable: I - lam phi P phi' is not positive definite"
            if duration < 0.0 else "ill-conditioned update solve"
        )
    c = [duration / den for den in dens]
    return Run(_update(p, q, r, w, bh, c, loss_rate * duration), w, bh)


def rk4_diag(p, q, r, d, h, nsteps, last=None, trail=False):
    d = np.asarray(d, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("diagonal weights must be >= 0")
    phi = np.diag(np.sqrt(d))[d > 0.0]
    return _rk4(p, q, r, phi, np.zeros(len(phi)), h, nsteps, last, trail)


def integrate_ko(x0, h, nsteps):
    """RK4 trajectory of x1' = x2 x3, x2' = x1 x3, x3' = -2 x1 x2 from ``x0``.

    Returns a fresh (nsteps + 1, 3) array whose row k is the state after k
    steps of size ``h``.  The state lives in three Python floats and each step
    is written straight into the preallocated result, so no per-step array is
    made, nor a list that holds every value as a Python float until the end.
    Every coordinate goes through the same operations, in the same order, as
    in the array form of the RK4 step, so the result equals it bit for bit.
    """
    h, nsteps = float(h), int(nsteps)
    x1, x2, x3 = np.asarray(x0, dtype=float).tolist()
    out = np.empty((nsteps + 1, 3))
    flat = memoryview(out.reshape(-1))
    flat[0], flat[1], flat[2] = x1, x2, x3
    half, sixth = 0.5 * h, h / 6.0
    for j in range(3, 3 * nsteps + 3, 3):
        a1 = x2 * x3
        a2 = x1 * x3
        a3 = -2.0 * x1 * x2
        u1 = x1 + half * a1
        u2 = x2 + half * a2
        u3 = x3 + half * a3
        b1 = u2 * u3
        b2 = u1 * u3
        b3 = -2.0 * u1 * u2
        u1 = x1 + half * b1
        u2 = x2 + half * b2
        u3 = x3 + half * b3
        c1 = u2 * u3
        c2 = u1 * u3
        c3 = -2.0 * u1 * u2
        u1 = x1 + h * c1
        u2 = x2 + h * c2
        u3 = x3 + h * c3
        d1 = u2 * u3
        d2 = u1 * u3
        d3 = -2.0 * u1 * u2
        x1 += sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        x2 += sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        x3 += sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        flat[j], flat[j + 1], flat[j + 2] = x1, x2, x3
    return out
