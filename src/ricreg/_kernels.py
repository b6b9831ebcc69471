"""Inner integration loops: plain Python and NumPy, no JIT.

Every data block, single- or multi-row, and every phase of the diagonal
weight flow is integrated in its row space by ``_rk4_rowspace``: with
U = P0 phi^T, every RK4 stage of every step keeps P = P0 - U C U^T, and in the
eigenbasis of the m x m matrix phi U the recurrence for C splits into m scalar
loops.  A run is one m x m eigh, m scalar loops and one rank-m update of
(P, q), and agrees with the per-step references in ``tests/test_kernels.py``
to rounding.  The diagonal flow with weights d >= 0 is the data flow of
phi = diag(sqrt(d)), restricted to the rows with d > 0, and y = 0.  The only
other loop is ``integrate_ko``, a scalar RK4 loop over the three floats of
the KO trajectory.

Vector fields, for feature matrix ``phi`` (m x n) and target ``y`` (m):

    dP/dt = -(phi P)^T (phi P)
    dq/dt = -(phi P)^T (phi q - y)
    dr/dt = -0.5 ||phi q - y||^2

and, for a diagonal quadratic term with weights ``d`` (n):

    dP/dt = -P^T diag(d) P
    dq/dt = -P^T (d * q)
    dr/dt = -0.5 sum_k d_k q_k^2

Each kernel advances (p, q, r) in place by ``nsteps`` classical 4-stage
Runge-Kutta steps of signed size ``h``, the final one of size ``last`` when
given, and returns the updated r.  With ``fail_early`` a backward run that RK4
cannot follow raises ``NumericsError`` before any step is taken.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .model import NumericsError

# There is no JIT backend; perfbench/run.py reports this in its provenance.
_USE_NUMBA = False


def _rk4_decay(a, h, nsteps, last, trail=None):
    # Classical RK4 on ds/dt = -a s^2, s(0) = 1: nsteps - 1 steps of size h,
    # then one of size last, written through the stage factors m_j (which
    # depend on g = step a s / 2 alone).  Returns c = sum_k (step_k / 6)
    # (m1^2 + 2 m2^2 + 2 m3^2 + m4^2) s_k^2, the RK4 integral of s^2 with
    # s = 1 - c a, or NaN if the run blows up.  ``trail`` (an array('d')), if
    # given, receives the running sum over the steps of size h, in units of h/6.
    s = 1.0
    c = 0.0
    inf = math.inf
    for step, count, record in ((h, nsteps - 1, trail), (last, 1, None)):
        half_ha = 0.5 * step * a
        ha6 = step * a / 6.0
        acc = 0.0
        for _ in range(count):
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
                record.append(acc)
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


def _rk4_rowspace(
    p, q, r, phi, y, h, nsteps, symmetrize, track_loss, last, fail_early, factors=None
):
    # A whole run in the row space of phi.  With U = p0^T phi^T (n x m) every
    # RK4 stage of every step keeps p = p0 - U C U^T and q = q0 - U e, and C, e
    # follow RK4 on an m x m flow with G = phi U.  In the eigenbasis
    # G = V diag(lam) V^T that flow decouples (RK4 commutes with the
    # orthogonal change of variables): with W = U V and bh = V^T (phi q0 - y),
    #     p = p0 - W diag(c) W^T,  q = q0 - W (bh * c),  dr = -sum bh^2 dc / 2,
    # where each c_i is the scalar recurrence of ``_rk4_decay`` with a = lam_i.
    # A run is one eigh, m scalar loops and one rank-m update, equal to the
    # per-step recurrence up to rounding.  ``factors``, if given, receives
    # (W, bh, c after each step of size h, one row per step), from which the
    # intermediate states follow.  (``.dot`` in place of ``@`` skips the ufunc
    # dispatch that dominates the one-step calls of small blocks.)
    m, n = phi.shape
    loss_rate = 0.0
    if m > n:
        # The flow sees phi only through phi^T phi, phi^T y and ||y||^2, so
        # phi = Q R gives the same flow with R and Q^T y, plus the constant
        # loss rate of the residual y - Q Q^T y, which RK4 integrates exactly.
        basis, phi = np.linalg.qr(phi)
        y_in = basis.T @ y
        rest = y - basis @ y_in
        loss_rate = float(rest @ rest)
        y = y_in
    u = p.T.dot(phi.T)
    b = phi.dot(q) - y
    g = phi.dot(u)
    if g.shape[0] == 1:
        lam, w, bh = g[0], u, b
    else:
        lam, v = np.linalg.eigh(0.5 * (g + g.T))
        w, bh = u.dot(v), b.dot(v)
    lam = lam.tolist()
    if fail_early and h < 0.0:
        _check_backward(lam, h, nsteps, last)
    trails = [array("d") if factors is not None else None for _ in lam]
    c = [_rk4_decay(a, h, nsteps, last, t) for a, t in zip(lam, trails)]
    if any(map(math.isnan, c)):
        # Blown up: the state is undefined from here on; NaN marks all of it
        # (without NumPy's inf * 0 warnings) for the caller to report.
        p[:] = math.nan
        q[:] = math.nan
        return math.nan
    wc = w * np.array(c)
    p -= wc.dot(w.T)
    if symmetrize:
        # One pass over the result makes both p0 and the update symmetric.
        p[:] = 0.5 * (p + p.T)
    q -= wc.dot(bh)
    if factors is not None:
        running = np.array(trails).T
        running *= h / 6.0
        factors.append((w, bh, running))
    if track_loss:
        fit_loss = sum([bi * bi * ci for bi, ci in zip(bh.tolist(), c)])
        r -= 0.5 * (fit_loss + loss_rate * (h * (nsteps - 1) + last))
    return r


def rk4_dense(
    p, q, r, phi, y, h, nsteps, symmetrize, track_loss, last=None, fail_early=False
):
    h, nsteps = float(h), int(nsteps)
    last = h if last is None else float(last)
    return _rk4_rowspace(p, q, r, phi, y, h, nsteps, symmetrize, track_loss, last, fail_early)


def rk4_diag(
    p, q, r, d, h, nsteps, symmetrize, track_loss, last=None, fail_early=False, factors=None
):
    d = np.asarray(d, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("diagonal weights must be >= 0")
    phi = np.diag(np.sqrt(d))[d > 0.0]
    last = h if last is None else last
    return _rk4_rowspace(
        p, q, r, phi, np.zeros(len(phi)), float(h), int(nsteps), symmetrize, track_loss,
        float(last), fail_early, factors,
    )


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
