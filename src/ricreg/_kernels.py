"""Inner integration loops: plain Python and NumPy, no JIT.

One update, two integrals.  With U = P0 phi^T and G = phi U = V diag(a) V^T,
the flow of a data block over a signed duration T is

    P = P0 - W diag(c) W^T,  q = q0 - W (bh * c),  r = r0 - sum bh^2 c / 2

for W = U V and bh = V^T (phi q0 - y), where c_i is the integral of s^2 for
ds/dt = -a_i s^2, s(0) = 1.  Each kernel is one m x m eigh (``_factors``),
the m integrals, and one rank-m update in place (``_update``).  The RK4
kernels integrate with ``_rk4_decay``, one scalar RK4 recurrence per
eigenvalue, equal to the per-step references in ``tests/test_kernels.py`` to
rounding: a run of fewer than ``_JUMP_MIN`` steps is stepped, and a longer
one costs O(1) whatever its step count, since its middle is crossed in closed
form through the Abel coordinate of the RK4 map.  ``_JUMP_MIN`` = 32 is where
jumping stops being slower for an untraced run; the integrals of m
eigenvalues cost, stepped -> jumped (2 vCPUs, numpy 2.4, best of 15):

    run                            steps   stepped    jumped
    untraced, m = 1,  h a = 1.7      28     17.2 us   17.5 us
    untraced, m = 1,  h a = 1.7      32     17.7      16.4
    untraced, m = 4,  h a = 0.05     48     69.9      32.9
    untraced, m = 21, h a = 0.05     32    283.4     148.8
    traced,   m = 4,  h a = 0.1      32     48.2     151.2
    traced,   m = 21, h a = 0.05     40    284.1     272.3

A traced run, which fills its trail with one array jump, is slower jumped
below 300 to 400 trail entries; it jumps from the same length, so that it
ends in the bits of an untraced run.  ``exact_dense`` takes the closed form
c = T / (1 + a T), the Woodbury update of ``ricreg.rls``, and refuses a run
with a non-finite a or some 1 + a T <= 0.  The diagonal flow
with weights d >= 0 is the data flow of phi = diag(sqrt(d)), restricted to the
rows with d > 0, and y = 0, so ``rk4_dense`` and ``rk4_diag`` share one body
(``_rk4``).  The only other loop is ``integrate_ko``, a scalar RK4 loop over
the three floats of the KO trajectory.

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
symmetric: ``_update`` adds an explicit copy of its transpose, the bits of
NumPy's own buffered ``p += p.T`` at less cost.  A kernel either raises
``NumericsError`` before its first step, or writes an update whose integrals
c are all finite: ``_check_run`` refuses an RK4 run from the eigenvalues a
alone (naming a step that passes, where one does), and ``exact_dense``
refuses one with a non-finite a or past the blow-up time.  Whether p, q and
r come out finite is checked by what holds them: the new state, or the trace
point.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import NumericsError, _finite

# There is no JIT backend; perfbench/run.py reports this in its provenance.
_USE_NUMBA = False


# Each RK4 step of ds/dt = -a s^2 maps rho = step a s by one polynomial,
#     F(rho) = rho - rho^2 (1 + 2 m2^2 + 2 m3^2 + m4^2) / 6,
# with the stage factors of ``_steps`` (g = rho / 2), whatever a and h are;
# F(rho) = rho / (1 + rho) + O(rho^6), the exact flow.  A run of k steps of
# size h from s is therefore crossed in closed form through the Abel
# coordinate of F, alpha(F(rho)) = alpha(rho) + 1 (Milnor, Dynamics in One
# Complex Variable, section 10): alpha(rho) = 1 / rho + A(rho) with
# A(rho) = sum_{j >= 3} b_j rho^j, whose b_j are rational (``_ABEL``; the
# series is asymptotic, and for |rho| <= 0.1 its terms still shrink at
# j = 26).  Then 1 / rho_k = 1 / e + A(rho) - A(rho_k) with
# e = rho / (1 + k rho), and c grows by (rho - rho_k) / (h a^2), written
# without a division by a.
_RHO_STAR = 0.1  # the largest |rho| a jump starts or ends at
# A run of fewer full steps is stepped whole: the break-even of the table
# in the module docstring (a jump costs about 5-8 us per eigenvalue, a step
# 0.3-0.4 us, and a stiff head of up to 1 / rho* steps is stepped before the
# jump).  It must exceed that longest head, or a jumped run would step past
# its trail.
_JUMP_MIN = 32
# b_3 .. b_17 (b_4 = 0), each the float nearest the exact fraction.
_ABEL = (-1 / 72, 0.0, 13 / 576, 17 / 576, 25 / 1344, 17 / 4608, -121 / 31104,
         -89 / 46080, 19931 / 3649536, 431 / 82944, -983317 / 60383232,
         -1034849 / 46448640, 8875343 / 119439360, 298825 / 2359296,
         -10078458301 / 22741254144)
# The degree of A for a jump whose largest |rho| is at most the reach: the
# terms left out of A then sum to below 2^-60 / |rho|, so each of rho_k and
# the increment of c is within a hundredth of an ulp of the full series.
# Beyond the last reach (never past rho* + 4e-6), the full degree 17.
_ABEL_DEGREES = ((1.8e-3, 3), (9e-3, 6), (0.027, 8), (0.048, 10), (0.068, 12),
                 (0.086, 14))


def _steps(a, s, step, count, c, trail=None, at=0):
    # ``count`` classical RK4 steps of size ``step`` on ds/dt = -a s^2 from s,
    # written through the stage factors m_j (which depend on g = step a s / 2
    # alone).  Returns s and c plus the steps' integral of s^2,
    # (step / 6) sum_k (m1^2 + 2 m2^2 + 2 m3^2 + m4^2) s_k^2.  ``trail``, if
    # given, receives at at + k the running c after step k + 1.
    half_ha = 0.5 * step * a
    ha6 = step * a / 6.0
    sixth = step / 6.0
    acc = 0.0
    for k in range(at, at + count):
        g = half_ha * s
        m2 = 1.0 - g
        m2sq = m2 * m2
        m3 = 1.0 - g * m2sq
        m3sq = m3 * m3
        m4 = 1.0 - (g + g) * m3sq
        w = (1.0 + 2.0 * (m2sq + m3sq) + m4 * m4) * (s * s)
        acc += w
        s -= ha6 * w
        if trail is not None:
            trail[k] = c + acc * sixth
    return s, c + acc * sixth


def _abel(x, coefs):
    # A(x) by Horner over ``coefs``, b_d first and b_3 last.
    p = coefs[0]
    for b in coefs[1:]:
        p = p * x + b
    return p * x * x * x


def _jump(rho, s, k, h, coefs):
    # The increment of c over k steps of size h from s, with rho = h a s, and
    # s after them.  Two fixed-point passes find rho_k = e / (1 + eps); every
    # operation is the same on floats and on NumPy arrays, so both give the
    # same bits.
    den = 1.0 + k * rho
    e = rho / den
    a0 = _abel(rho, coefs)
    r = e
    for _ in range(2):
        d = a0 - _abel(r, coefs)
        eps = e * d
        r = e / (1.0 + eps)
    ss = s * s
    dc = ss * (k * h) / den + h * ss * d / (den * den * (1.0 + eps))
    return dc, s / (den * (1.0 + eps))


def _rk4_decay(a, h, nsteps, last, trail=None, jumps=None):
    # Classical RK4 on ds/dt = -a s^2, s(0) = 1: nsteps - 1 steps of size h,
    # then one of size last.  Returns c, the RK4 integral of s^2 with
    # s = 1 - c a, finite for every run that ``_check_run`` passes.  A run of
    # fewer than ``_JUMP_MIN`` full steps is stepped whole.  A longer one
    # steps while rho > rho* (the stiff head of a decaying run, at most about
    # 1 / rho* steps), jumps the middle, and steps the end of a growing run
    # where |rho| > rho* (about 1 / rho* steps before the limit of
    # ``_check_run``) and the last step.  ``trail`` (a float64 memoryview of
    # length nsteps - 1), if given, receives at k the running c after step
    # k + 1 of size h, for every step that is stepped; ``jumps`` then gets
    # (k0, count, rho, s, c0, coefs) of the jump after step k0, if the run
    # takes one, for ``_fill_jumps``.
    n = nsteps - 1
    s, c, k = 1.0, 0.0, 0
    if n >= _JUMP_MIN:
        rho = h * a
        head = math.ceil(1.0 / _RHO_STAR - 1.0 / rho) if rho > _RHO_STAR else 0
        s, c = _steps(a, s, h, head, c, trail)
        rho = h * a * s
        count = n - head
        if -rho * count > 1.0 + rho / _RHO_STAR:  # |e| would pass rho*
            count = max(0, math.floor((1.0 + rho / _RHO_STAR) / -rho))
        x = max(abs(rho), abs(rho / (1.0 + count * rho)))
        degree = next((d for reach, d in _ABEL_DEGREES if x <= reach), len(_ABEL) + 2)
        coefs = _ABEL[degree - 3::-1]
        if jumps is not None:
            jumps.append((head, count, rho, s, c, coefs))
        dc, s = _jump(rho, s, count, h, coefs)
        c += dc
        k = head + count
    s, c = _steps(a, s, h, n - k, c, trail, k)
    return _steps(a, s, last, 1, c)[1]


# One RK4 step of ds/dt = -a s^2 from s = 1 ends in (0, 1) for step a below
# this float, and at s <= 0 from it on.
_DECAY_LIMIT = 1.739456880737028


_NOT_FINITE = "phi P phi' is not finite: no step size can follow this run"


def _check_finite(a):
    # A G that overflows: neither RK4 nor the closed form can follow its run.
    if not all(map(math.isfinite, a)):
        raise NumericsError(_NOT_FINITE)


def _check_run(a, h, nsteps, last):
    # Refuse, before its first step, a run over the eigenvalues a of G that RK4
    # cannot follow; a run that passes has finite integrals.  With b = a signed
    # by the direction of the run, a decaying flow (b > 0) is stiffest at its
    # first step, from s = 1, and stays in (0, 1) while |step| b < _DECAY_LIMIT.
    # On a growing one (b < 0) RK4 stays below the exact s = 1 / (1 - |b| t):
    # |b T| >= 1 passes its blow-up, and |step b| / (1 - |b T|) > 2 is past the
    # stability limit at the end of the run.  The extreme b of each side decides.
    _check_finite(a)
    ends = [0.0, *a]  # 0 stands in for a side with no eigenvalue
    lo, hi = min(ends), max(ends)
    back = h < 0.0
    decay, grow = (-lo, hi) if back else (hi, -lo)
    what = "backward run" if back else "forward run"
    duration, step = abs(h * (nsteps - 1) + last), abs(h if nsteps > 1 else last)
    if grow * duration >= 1.0:
        cause = "what it removes was never added" if back else "P is not positive definite"
        raise NumericsError(
            f"{what} of length {duration:.6g} reaches the blow-up time {1.0 / grow:.6g} "
            f"of this state: {cause}, and no smaller step size can follow it")
    if step * grow > 2.0 * (1.0 - grow * duration):
        limit = 2.0 * (1.0 - grow * duration) / grow
        hint = 0.1 * limit
    elif step * decay >= _DECAY_LIMIT:
        # 0.87 / b, half the limit, rounded down to two digits so that it passes.
        limit = _DECAY_LIMIT / decay
        unit = 10.0 ** (math.floor(math.log10(0.87 / decay)) - 1)
        hint = math.floor(0.87 / decay / unit) * unit
    else:
        return
    raise NumericsError(
        f"{what} is too stiff for RK4 at step size {step:.3g} (stable up to {limit:.2g}); "
        f"use a smaller step size, e.g. {hint:.2g}")


class Run(NamedTuple):
    """What one run of a kernel returns: the updated r, the factors W and bh
    of its row-space update, and, for ``rk4_diag(..., trail=True)``, the
    running integrals c after each step of size h, one row per step.  The
    stepped entries of a trail come from the same recurrence as the final c,
    and the jumped ones from one array expression over the eigenvalues and a
    chunk of steps; a traced run ends in the bits of an untraced one."""

    r: float
    w: np.ndarray
    bh: np.ndarray
    running: np.ndarray | None = None


@np.errstate(over="ignore", invalid="ignore")
def _products(p, phi):
    # u = P phi^T and, for a block of more than one row, G = phi u, without
    # NumPy's warnings when they overflow: a G that overflows, as it does
    # whenever u does, gives a non-finite a, which every run refuses.  The
    # errstate as a decorator costs about 0.7 us a call, against 1.2 us as a
    # with-block and more for a finiteness scan of P.
    u = p.T.dot(phi.T)
    return u, (phi.dot(u) if len(phi) > 1 else None)


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
    # For one row, vdot, the same BLAS ddot as dot, gives G without a warning;
    # a multi-row G is refused before eigh would warn on it.
    u, g = _products(p, phi)
    b = phi.dot(q) - y
    if g is None:
        return [float(np.vdot(phi, u))], u, b, loss_rate
    if not _finite(g):
        raise NumericsError(_NOT_FINITE)
    a, v = np.linalg.eigh(0.5 * (g + g.T))
    return a.tolist(), u.dot(v), b.dot(v), loss_rate


def _update(p, q, r, w, bh, c, loss):
    # The update of the module docstring in place, plus the residual ``loss``;
    # returns the new r.  Every c_i is finite.
    wc = w * np.array(c)
    p -= wc.dot(w.T)
    # One pass over the result makes both p0 and the update symmetric: each
    # entry sums the old p_ij + p_ji.  The explicit copy of p.T gives the bits
    # of NumPy's own buffering of the overlapping p.T, at less cost: the
    # symmetrization alone took 2.9-5.2 -> 1.7 us at n = 10 and 19-24 ->
    # 12-13 us at n = 100 (best of 15 x 1000).
    p += p.T.copy()
    p *= 0.5
    q -= wc.dot(bh)
    fit_loss = sum([bi * bi * ci for bi, ci in zip(bh.tolist(), c)])
    return r - 0.5 * (fit_loss + loss)


def _rk4_integrals(a, h, nsteps, last, trail=False):
    # c_i = _rk4_decay(a_i): RK4 commutes with the orthogonal change of
    # variables.  With ``trail``, also the running integrals of ``Run``.
    _check_run(a, h, nsteps, last)
    if not trail:
        return [_rk4_decay(ai, h, nsteps, last) for ai in a], None
    running = np.empty((len(a), nsteps - 1))
    jumps = []
    c = [_rk4_decay(ai, h, nsteps, last, row, jumps)
         for ai, row in zip(a, map(memoryview, running))]
    _fill_jumps(running, jumps, h)
    return c, running.T


_TRAIL_CHUNK = 512  # trail steps of every eigenvalue evaluated together


def _fill_jumps(running, jumps, h):
    # The jumped entries of the trail rows that ``_rk4_decay`` left: row i
    # gets c0 + dc(j) at column k0 + j - 1 for j = 1 .. count, from one
    # ``_jump`` over the rows and a chunk of columns at a time; the rows of
    # one run share nsteps, so every row has a jump or none has.  A row of
    # lower degree has zeros for its leading coefficients, which leave its
    # Horner sums bit for bit, so every entry equals the scalar jump of its
    # length and the trail runs on into the stepped tail.
    if not jumps:
        return
    k0, count, rho, s, c0, coefs = zip(*jumps)
    k0, count, rho, s, c0 = (np.array(x)[:, None] for x in (k0, count, rho, s, c0))
    width = max(map(len, coefs))
    padded = np.zeros((width, len(jumps), 1))
    for row, row_coefs in enumerate(coefs):
        padded[width - len(row_coefs):, row, 0] = row_coefs
    end = int((k0 + count).max())
    for lo in range(int(k0.min()), end, _TRAIL_CHUNK):
        hi = min(lo + _TRAIL_CHUNK, end)
        j = np.arange(lo + 1, hi + 1) - k0
        inside = (j >= 1) & (j <= count)
        dc, _ = _jump(rho, s, np.minimum(np.maximum(j, 0), count), h, padded)
        np.copyto(running[:, lo:hi], c0 + dc, where=inside)


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
    # The exact flow over the signed ``duration`` T.  A non-finite a is refused
    # as in ``_check_run`` (an infinite one would pass the test below and give
    # c = 0); some 1 + a T <= 0 is a run past the blow-up time.
    a, w, bh, loss_rate = _factors(p, q, phi, y)
    _check_finite(a)
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
