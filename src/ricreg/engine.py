"""Riccati-flow solver for l2-regularized linear regression.

The quadratic value function S(x) = x'Px/2 + q'x + r of the underlying
control problem is integrated with fixed-step classical RK4, one piece per
data block (piece length = the block's weight).  The minimizer of the
regression loss is then P * (gamma * theta0) + q.  Because the state (P, q, r)
is a sufficient statistic for all processed data, blocks can be added,
removed (time-reversed integration), and re-weighted after the fact, the
regularization weights can be retuned through an auxiliary diagonal flow, and
the prior bias can be moved by a pure matrix-vector evaluation.

All operations are pure: they take a state and return a new one, or raise
``NumericsError``.  A kernel refuses a run before its first step, from the
eigenvalues of phi P phi' alone, or yields finite integrals; the new state
checks its own p, q and r, and a traced sweep each phase's points before it
appends them, so a failed phase appends nothing.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .model import (
    DataBlock,
    Hyperparams,
    ModelSolution,
    NumericsError,
    RiccatiState,
    _check_evaluation_point,
    _finite,
    _fitted_solution,
    _frozen,
    _new_solution,
    _new_state,
    new_state,
    validate_block,
)

__all__ = [
    "IntegrationConfig",
    "TraceRecord",
    "ParetoTrace",
    "fit",
    "extract_solution",
    "add_block",
    "remove_block",
    "tune_lambda",
    "tune_gamma",
    "shift_bias",
]

_TRACE_CHUNK = 256  # steps of a traced phase evaluated together


@dataclass(frozen=True)
class IntegrationConfig:
    """Fixed-step RK4 settings.

    ``step_h`` is never adapted automatically; callers pick it (and may change
    it between operations, e.g. coarse-to-fine schedules for weight sweeps).
    Whether the loss accumulator r is integrated follows the state: a state
    built with ``r=None`` stays without one through every operation.
    """

    step_h: float = 1e-3

    def __post_init__(self):
        if not isinstance(self.step_h, numbers.Real):
            raise ValueError(f"step_h must be a real number, got {self.step_h!r}")
        h = float(self.step_h)
        if not (h > 0.0) or not math.isfinite(h):
            raise ValueError(f"step_h must be positive and finite, got {h}")
        object.__setattr__(self, "step_h", h)


@dataclass(frozen=True)
class TraceRecord:
    """One point on the regularization path: weight label, minimizer, objectives."""

    effective_hyperparam: float
    theta: np.ndarray
    data_fit: float
    reg_norm: float


class ParetoTrace:
    """Ordered regularization-path points recorded during a sweep.

    The points are held as read-only columns, one chunk per evaluation: the
    labels, a (k, n) matrix of minimizers, the data fits and the
    regularization norms.  ``records`` and iteration build each
    ``TraceRecord`` on access, over a read-only row of the minimizers.
    """

    def __init__(self):
        self._chunks: list[tuple[np.ndarray, ...]] = []

    @property
    def records(self) -> list[TraceRecord]:
        return list(self)

    def __len__(self) -> int:
        return sum(len(labels) for labels, *_ in self._chunks)

    def __iter__(self):
        for labels, theta, data_fit, reg_norm in self._chunks:
            columns = labels.tolist(), theta, data_fit.tolist(), reg_norm.tolist()
            yield from map(TraceRecord, *columns)

    def write_csv(self, path) -> None:
        """Columns: effective_param,data_fit,reg_norm,theta_0..theta_{n-1}."""
        if not self._chunks:
            raise ValueError("empty trace")
        n = self._chunks[0][1].shape[1]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["effective_param", "data_fit", "reg_norm"]
                + [f"theta_{k}" for k in range(n)]
            )
            for labels, theta, data_fit, reg_norm in self._chunks:
                # csv writes every float as its repr.
                writer.writerows(np.column_stack((labels, data_fit, reg_norm, theta)).tolist())


def _new_elapsed(elapsed: float, signed_duration: float) -> float:
    out = elapsed + signed_duration
    if out < 0.0:
        if out > -1e-9 * (abs(elapsed) + abs(signed_duration) + 1.0):
            return 0.0
        raise ValueError("removing more integrated time than the state contains")
    return out


def _split_steps(signed_duration: float, h: float) -> tuple[float, int, float]:
    """Signed step size, number of steps, and signed size of the final step,
    which lands exactly on ``signed_duration``; the sign is the duration's."""
    k = max(1, int(math.ceil(abs(signed_duration) / h - 1e-9)))
    step = math.copysign(h, signed_duration)
    return step, k, signed_duration - (k - 1) * step


def _advance(state: RiccatiState, signed_duration: float, run, cls=RiccatiState):
    """The state that ``run(p, q, r)`` leads to: ``run`` advances copies of
    ``state.p`` and ``state.q`` in place, from the state's r (0.0 when it has
    none), and returns the new r.  r stays None if the state had none (the
    run's r is then dropped unchecked), and elapsed advances by
    ``signed_duration``.  The copies become the new state's arrays, and the
    state's own checks are the one scan of them."""
    p = state.p.copy()
    q = state.q.copy()
    r = run(p, q, 0.0 if state.r is None else state.r)
    r = None if state.r is None else r
    return _new_state(cls, p, q, r, _new_elapsed(state.elapsed, signed_duration))


def _integrate(state: RiccatiState, block: DataBlock, signed_duration, cfg) -> RiccatiState:
    """``block``'s flow over ``signed_duration`` (backward in time if negative),
    for a block the caller has checked against the state; the state itself
    for a zero duration."""
    if signed_duration == 0.0:
        return state
    h, nsteps, last = _split_steps(signed_duration, cfg.step_h)

    def run(p, q, r):
        return _kernels.rk4_dense(p, q, r, block.phi, block.y, h, nsteps, last).r

    return _advance(state, signed_duration, run)


def fit(hyper: Hyperparams, blocks, cfg: IntegrationConfig) -> RiccatiState:
    """Integrate all blocks in order from the fresh state p = diag(1/gamma),
    q = 0, r = 0.  Every block, and the evaluation point gamma * theta0, is
    checked before the first block is integrated."""
    blocks = list(blocks)
    for block in blocks:
        validate_block(block, hyper.n)
    _check_evaluation_point(hyper)
    state = new_state(hyper)
    for block in blocks:
        state = _integrate(state, block, block.lam, cfg)
    return state


def _loss_identity(state, hyper, x, px) -> float:
    # The minimal loss from the value function, -S(x) + theta0' Gamma theta0 / 2,
    # at the evaluation point x = Gamma theta0, given px = P x.
    s_value = 0.5 * float(x.dot(px)) + float(state.q.dot(x)) + state.r
    return -s_value + 0.5 * float(hyper.theta0.dot(x))


def extract_solution(
    state: RiccatiState, hyper: Hyperparams, blocks=None
) -> ModelSolution:
    """Minimizer theta* = P (gamma * theta0) + q, with loss diagnostics.

    When ``blocks`` are given, the data-fit and regularization values are
    evaluated directly (and total_loss is their sum).  Otherwise total_loss is
    recovered from the value function when the loss accumulator was tracked,
    and the split is left unset.  Without blocks the query is one
    matrix-vector product, the three dot products of the loss when r is
    tracked, and one finiteness scan of theta*; the products are BLAS ``dot``
    calls and give the bits of their ``@`` forms.
    """
    if state.n != hyper.n:
        raise ValueError("state and hyperparams dimension mismatch")
    x = hyper.evaluation_point()
    px = state.p.dot(x)
    theta = px + state.q
    if blocks is not None:
        return _fitted_solution(theta, hyper, blocks)
    if state.r is not None:
        return _new_solution(theta, total_loss=_loss_identity(state, hyper, x, px))
    return _new_solution(theta)


def add_block(state: RiccatiState, block: DataBlock, cfg: IntegrationConfig) -> RiccatiState:
    """Incorporate one more block; equivalent to refitting with it appended."""
    validate_block(block, state.n)  # before its weight is read
    return _integrate(state, block, block.lam, cfg)


def remove_block(state: RiccatiState, block: DataBlock, cfg: IntegrationConfig) -> RiccatiState:
    """Undo a previously incorporated block by integrating its piece backward.

    The caller is responsible for the block actually having been incorporated;
    the state carries no history to verify it.
    """
    validate_block(block, state.n)  # before its weight is read
    return _integrate(state, block, -block.lam, cfg)


def tune_lambda(
    state: RiccatiState,
    block: DataBlock,
    old_lambda: float,
    new_lambda: float,
    cfg: IntegrationConfig,
) -> RiccatiState:
    """Change one block's weight by integrating its piece for the difference:
    the general signed run of one block, forward for ``new_lambda`` from
    ``old_lambda = 0`` and backward for ``old_lambda`` to ``new_lambda = 0``."""
    if not (0.0 <= old_lambda < math.inf and 0.0 <= new_lambda < math.inf):
        raise ValueError(f"weights must be finite and >= 0, got {old_lambda} and {new_lambda}")
    validate_block(block, state.n)
    return _integrate(state, block, new_lambda - old_lambda, cfg)


def _append_points(trace, chunks) -> None:
    # The points join the trace only if every one is finite.
    if not all(_finite(column) for chunk in chunks for column in chunk):
        raise NumericsError("non-finite trace point")
    trace._chunks.extend(tuple(map(_frozen, chunk)) for chunk in chunks)


def _trace_points(p0, q0, r0, w, bh, c, gammas, theta0):
    # The columns of one trace point per row c_k of c (and of the weights
    # gammas), for the state p0 - W diag(c_k) W^T, q0 - W (bh * c_k),
    # r0 - sum(bh^2 c_k) / 2.
    x = gammas * theta0
    z = x.dot(w)
    theta = x.dot(p0.T) + q0 - (c * (z + bh)).dot(w.T)
    # x^T P_k x + q_k^T x = x^T theta_k, and q_k^T x = q0^T x - (c_k * z_k)^T bh.
    qx = x.dot(q0) - (c * z).dot(bh)
    r = r0 - 0.5 * c.dot(bh * bh)
    s_value = 0.5 * (np.einsum("ij,ij->i", x, theta) + qx) + r
    total = -s_value + 0.5 * x.dot(theta0)
    diff = theta - theta0
    data_fit = total - 0.5 * np.einsum("ij,ij,ij->i", gammas, diff, diff)
    reg_norm = 0.5 * np.einsum("ij,ij->i", diff, diff)
    return gammas.mean(axis=1), theta, data_fit, reg_norm


def _trace_point(p, q, r, gamma_eff, theta0):
    # The point of the state (p, q, r) itself: no factors.
    no_w = np.zeros((len(q), 0))
    return _trace_points(p, q, r, no_w, no_w[0], no_w[:1], gamma_eff[None, :], theta0)


def _run_diag(p, q, r, d, sign, cfg, trace, start, end, theta0) -> float:
    """The diagonal flow with increments ``d`` over unit time, forward for
    ``sign`` = 1.0 and backward for -1.0, as one row-space run of the kernel.

    With a ``trace``, one trace point is recorded per step.  After progress t
    in [0, 1) through the phase the state is the exact solution under the
    weights ``start + (sign * t) * d``.  The run hands back the factors W, bh
    and the running integrals c_k after every step, so the state after step k
    is P0 - W diag(c_k) W^T, q0 - W (bh * c_k), r0 - sum(bh^2 c_k) / 2; the
    interior points, and their weights, are evaluated from these in chunks of
    ``_TRACE_CHUNK`` steps.  The last point is evaluated from the final state
    and labelled with the phase's exact end weights ``end``, so that it is
    identical to the first point of whatever continues from the same state.
    A phase that fails records nothing.
    """
    h, nsteps, last = _split_steps(sign, cfg.step_h)
    if trace is None:
        return _kernels.rk4_diag(p, q, r, d, h, nsteps, last).r
    p0, q0, r0 = p.copy(), q.copy(), r
    run = _kernels.rk4_diag(p, q, r, d, h, nsteps, last, True)
    # Progress after each full step, summed in the same order as stepping.
    t = np.cumsum(np.full(len(run.running), cfg.step_h))
    chunks = []
    for k in range(0, len(t), _TRACE_CHUNK):
        weights = start + (sign * t[k:k + _TRACE_CHUNK, None]) * d
        chunks.append(_trace_points(p0, q0, r0, run.w, run.bh,
                                    run.running[k:k + _TRACE_CHUNK], weights, theta0))
    chunks.append(_trace_point(p, q, run.r, end, theta0))
    _append_points(trace, chunks)
    return run.r


def tune_gamma(
    state: RiccatiState,
    hyper: Hyperparams,
    new_gamma,
    cfg: IntegrationConfig,
    trace: ParetoTrace | None = None,
) -> tuple[RiccatiState, Hyperparams]:
    """Retune the regularization weights without touching the data.

    Weight increases are applied by integrating the diagonal flow with the
    increments forward over unit time; decreases by integrating it backward.
    The returned state solves the problem under ``new_gamma`` (pair it with
    the returned Hyperparams when extracting the minimizer).  If ``trace`` is
    given, one point per RK4 step is recorded along the sweep, labelled by the
    interpolated effective weights and appended to the trace's read-only
    columns in chunks; this requires the loss accumulator.
    """
    if state.n != hyper.n:
        raise ValueError("state and hyperparams dimension mismatch")
    new_hyper = hyper.with_gamma(new_gamma)
    d = new_hyper.gamma - hyper.gamma
    d_up = np.maximum(d, 0.0)
    d_down = np.maximum(-d, 0.0)
    if trace is not None and state.r is None:
        raise ValueError("Pareto tracing requires a state with the loss accumulator")
    if trace is not None:
        _append_points(trace, [_trace_point(state.p, state.q, state.r, hyper.gamma, hyper.theta0)])
    if not np.any(d_up) and not np.any(d_down):
        return state, new_hyper

    # A phase is (increments, sign, start weights, end label).  A backward
    # phase that follows a forward one starts from the weights gamma + d_up.
    mid = hyper.gamma + d_up
    phases = (
        (d_up, 1.0, hyper.gamma, mid if np.any(d_down) else new_hyper.gamma),
        (d_down, -1.0, mid, new_hyper.gamma),
    )

    def run(p, q, r):
        for inc, sign, start, end in phases:
            if np.any(inc):
                r = _run_diag(p, q, r, inc, sign, cfg, trace, start, end, hyper.theta0)
        return r

    return _advance(state, 0.0, run), new_hyper


def shift_bias(state: RiccatiState, hyper: Hyperparams, new_theta0) -> ModelSolution:
    """Move the prior bias: pure O(n^2) evaluation, no integration, no data.

    One matrix-vector product, three dot products and two finiteness scans,
    of the new bias and of theta*: ``extract_solution`` under the new bias.
    """
    new_hyper = hyper.with_theta0(new_theta0)
    return extract_solution(state, new_hyper)
