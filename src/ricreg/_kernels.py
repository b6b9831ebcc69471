"""Inner integration loops.

Every data block, single- or multi-row, and every phase of the diagonal
weight flow is integrated in its row space by ``_rk4_rowspace``: with
U = P0 phi^T, every RK4 stage of every step keeps P = P0 - U C U^T, and in the
eigenbasis of the m x m matrix phi U the recurrence for C splits into m scalar
loops.  A run is one m x m eigh, m scalar loops and one rank-m update of
(P, q), and agrees with the per-step references (``_rk4_dense_numpy`` here,
the diagonal one in ``tests/test_kernels.py``) to rounding.  The diagonal flow
with weights d >= 0 is the data flow of phi = diag(sqrt(d)), restricted to the
rows with d > 0, and y = 0.  The per-step loops that remain (single-row blocks
and the KO trajectory) are JIT-compiled when numba is available (set
RICREG_DISABLE_NUMBA=1 to force the NumPy path); without numba single-row
blocks take the row-space path and the trajectory a NumPy loop with the JIT
arithmetic.

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
import os
from array import array

import numpy as np

from .model import NumericsError

_USE_NUMBA = os.environ.get("RICREG_DISABLE_NUMBA", "") != "1"
if _USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        _USE_NUMBA = False


# -- NumPy implementation ---------------------------------------------------


def _rk4_dense_numpy(p, q, r, phi, y, h, nsteps, symmetrize, track_loss):
    def stage(pc, qc):
        w = phi @ pc
        v = phi @ qc - y
        dr = -0.5 * float(v @ v) if track_loss else 0.0
        return -(w.T @ w), -(w.T @ v), dr

    for _ in range(nsteps):
        k1p, k1q, k1r = stage(p, q)
        k2p, k2q, k2r = stage(p + 0.5 * h * k1p, q + 0.5 * h * k1q)
        k3p, k3q, k3r = stage(p + 0.5 * h * k2p, q + 0.5 * h * k2q)
        k4p, k4q, k4r = stage(p + h * k3p, q + h * k3q)
        p += (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        q += (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        r += (h / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        if symmetrize:
            p[:] = 0.5 * (p + p.T)
    return r


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


def _ko_rhs_numpy(x):
    return np.array([x[1] * x[2], x[0] * x[2], -2.0 * x[0] * x[1]])


def _integrate_ko_numpy(x0, h, nsteps):
    out = np.empty((nsteps + 1, 3))
    out[0] = x0
    x = np.array(x0, dtype=float)
    for i in range(nsteps):
        k1 = _ko_rhs_numpy(x)
        k2 = _ko_rhs_numpy(x + 0.5 * h * k1)
        k3 = _ko_rhs_numpy(x + 0.5 * h * k2)
        k4 = _ko_rhs_numpy(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = x
    return out


# -- Numba implementation ----------------------------------------------------

if _USE_NUMBA:

    @njit(cache=True)
    def _rk4_rank1_numba(p, q, r, phi, y, h, nsteps, track_loss):
        # Single-row blocks: every RK4 stage lives in span{u} with u = p^T phi,
        # so the full step reduces to scalar stage recurrences plus one rank-1
        # update.  Same arithmetic as the dense step, ~5x fewer operations.
        n = phi.shape[0]
        u = np.empty(n)
        for _ in range(nsteps):
            for i in range(n):
                acc = 0.0
                for k in range(n):
                    acc += p[k, i] * phi[k]
                u[i] = acc
            a = 0.0
            for i in range(n):
                a += u[i] * phi[i]
            m1 = 1.0
            m2 = 1.0 - 0.5 * h * a * m1 * m1
            m3 = 1.0 - 0.5 * h * a * m2 * m2
            m4 = 1.0 - h * a * m3 * m3
            v1 = -y
            for i in range(n):
                v1 += phi[i] * q[i]
            v2 = v1 - 0.5 * h * a * m1 * v1
            v3 = v1 - 0.5 * h * a * m2 * v2
            v4 = v1 - h * a * m3 * v3
            wp = (h / 6.0) * (m1 * m1 + 2.0 * m2 * m2 + 2.0 * m3 * m3 + m4 * m4)
            wq = (h / 6.0) * (m1 * v1 + 2.0 * m2 * v2 + 2.0 * m3 * v3 + m4 * v4)
            for i in range(n):
                wu = wp * u[i]
                p[i, i] -= wu * u[i]
                for j in range(i + 1, n):
                    delta = wu * u[j]
                    p[i, j] -= delta
                    p[j, i] -= delta
                q[i] -= wq * u[i]
            if track_loss:
                r -= (h / 12.0) * (v1 * v1 + 2.0 * v2 * v2 + 2.0 * v3 * v3 + v4 * v4)
        return r

    @njit(cache=True)
    def _integrate_ko_numba(x0, h, nsteps):
        out = np.empty((nsteps + 1, 3))
        x1, x2, x3 = x0[0], x0[1], x0[2]
        out[0, 0] = x1
        out[0, 1] = x2
        out[0, 2] = x3
        for i in range(nsteps):
            a1 = x2 * x3
            a2 = x1 * x3
            a3 = -2.0 * x1 * x2
            u1 = x1 + 0.5 * h * a1
            u2 = x2 + 0.5 * h * a2
            u3 = x3 + 0.5 * h * a3
            b1 = u2 * u3
            b2 = u1 * u3
            b3 = -2.0 * u1 * u2
            u1 = x1 + 0.5 * h * b1
            u2 = x2 + 0.5 * h * b2
            u3 = x3 + 0.5 * h * b3
            c1 = u2 * u3
            c2 = u1 * u3
            c3 = -2.0 * u1 * u2
            u1 = x1 + h * c1
            u2 = x2 + h * c2
            u3 = x3 + h * c3
            d1 = u2 * u3
            d2 = u1 * u3
            d3 = -2.0 * u1 * u2
            x1 += (h / 6.0) * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            x2 += (h / 6.0) * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
            x3 += (h / 6.0) * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
            out[i + 1, 0] = x1
            out[i + 1, 1] = x2
            out[i + 1, 2] = x3
        return out


# The wrappers hand the JIT fresh writable C-contiguous copies of the
# constant inputs: callers routinely pass read-only views (value objects lock
# their arrays), and numba treats readonly/writable layouts as distinct
# signatures, which would silently double every compilation.  The copies are
# one-per-call (not per-step) and tiny next to the integration itself.


def _writable(arr):
    return np.array(arr, dtype=float, order="C", copy=True)


def rk4_dense(
    p, q, r, phi, y, h, nsteps, symmetrize, track_loss, last=None, fail_early=False
):
    h, nsteps = float(h), int(nsteps)
    last = h if last is None else float(last)
    if _USE_NUMBA and phi.shape[0] == 1:
        row = _writable(phi[0])
        if fail_early and h < 0.0:
            _check_backward([row.dot(p.dot(row))], h, nsteps, last)
        # The rank-1 step applies exactly symmetric updates, so one up-front
        # symmetrization makes the per-step (p + p^T)/2 a no-op.
        if symmetrize:
            p[:] = 0.5 * (p + p.T)
        r = _rk4_rank1_numba(p, q, r, row, float(y[0]), h, nsteps - 1, track_loss)
        return _rk4_rank1_numba(p, q, r, row, float(y[0]), last, 1, track_loss)
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
    x0 = _writable(x0)
    if _USE_NUMBA:
        return _integrate_ko_numba(x0, float(h), int(nsteps))
    return _integrate_ko_numpy(x0, float(h), int(nsteps))


def warm_up():
    """Trigger JIT compilation on tiny inputs so later calls run at full speed.

    Exercises the single-row step of ``rk4_dense`` and the trajectory kernel.
    """
    rk4_dense(np.eye(2), np.zeros(2), 0.0, np.ones((1, 2)), np.ones(1), 1e-3, 1, True, True)
    integrate_ko(np.array([1.0, 0.8, 0.5]), 1e-3, 1)
