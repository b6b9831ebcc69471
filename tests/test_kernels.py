"""The kernels against plain NumPy per-step references.

There is one implementation per kernel and no JIT.  `rk4_dense` and
`rk4_diag` run every block, single- or multi-row, and every diagonal weight
flow as the row-space recurrence, which must agree with the per-step RK4
references below to rounding error.  `_rk4_decay` crosses the middle of a
long run through the Abel coordinate of the RK4 map; it is checked against
the loop over every step (`_loop_decay`, bit for bit on short runs) and a
50-digit reference.  `integrate_ko` is a scalar loop over three floats with
the same arithmetic as the array reference `_integrate_ko_numpy`, and must
match it bit for bit.  A kernel that fails raises before it writes to p or q
(`TestFailureContract`).
"""

import decimal
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from ricreg import _kernels, engine, rls
from ricreg.model import DataBlock, Hyperparams, NumericsError


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


def _rk4_diag_numpy(p, q, r, d, h, nsteps, symmetrize, track_loss):
    def stage(pc, qc):
        v = d[:, None] * pc
        dr = -0.5 * float(d @ (qc * qc)) if track_loss else 0.0
        return -(pc.T @ v), -(pc.T @ (d * qc)), dr

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


def _spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def _assert_close(got, ref):
    """Agreement to 1e-13 relative to max(1, |reference|)."""
    (p_a, q_a, r_a), (p_b, q_b, r_b) = got, ref
    assert np.max(np.abs(p_a - p_b)) < 1e-13 * max(1.0, np.max(np.abs(p_b)))
    assert np.max(np.abs(q_a - q_b)) < 1e-13 * max(1.0, np.max(np.abs(q_b)))
    assert abs(r_a - r_b) < 1e-13 * max(1.0, abs(r_b))


def _both(p0, q0, r0, phi, y, h, nsteps):
    p_a, q_a = p0.copy(), q0.copy()
    r_a = _kernels.rk4_dense(p_a, q_a, r0, phi, y, h, nsteps).r
    p_b, q_b = p0.copy(), q0.copy()
    r_b = _rk4_dense_numpy(p_b, q_b, r0, phi, y, h, nsteps, True, True)
    return (p_a, q_a, r_a), (p_b, q_b, r_b)


def _assert_p_q_independent_of_r(both):
    """``both(r0)`` gives (kernel, reference) runs from the loss r0.  The
    engine runs a state without r from r0 = 0.0 and drops the r it gets, so
    p and q must come out the same from any r0."""
    got, ref = both(0.75)
    from_zero, _ = both(0.0)
    assert np.array_equal(from_zero[0], got[0])
    assert np.array_equal(from_zero[1], got[1])
    _assert_close(got, ref)


class TestDenseKernel:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(1)
        for m in (1, 2, 4):
            n = 5
            p0 = np.linalg.inv(_spd(rng, n))
            q0 = rng.normal(size=n)
            phi = np.ascontiguousarray(rng.normal(size=(m, n)))
            y = np.ascontiguousarray(rng.normal(size=m))
            p_a, q_a = p0.copy(), q0.copy()
            r_a = _kernels.rk4_dense(p_a, q_a, 0.0, phi, y, 1e-2, 100).r
            p_b, q_b = p0.copy(), q0.copy()
            r_b = _rk4_dense_numpy(p_b, q_b, 0.0, phi, y, 1e-2, 100, True, True)
            assert np.max(np.abs(p_a - p_b)) < 1e-13
            assert np.max(np.abs(q_a - q_b)) < 1e-13
            assert abs(r_a - r_b) < 1e-13

    def test_single_row_path_keeps_p_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        n = 6
        p = np.linalg.inv(_spd(rng, n))
        q = rng.normal(size=n)
        phi = np.ascontiguousarray(rng.normal(size=(1, n)))
        y = np.ascontiguousarray(rng.normal(size=1))
        _kernels.rk4_dense(p, q, 0.0, phi, y, 1e-2, 50)
        assert np.array_equal(p, p.T)

    def test_multi_row_path_keeps_p_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        n = 6
        p = np.linalg.inv(_spd(rng, n))
        q = rng.normal(size=n)
        phi = np.ascontiguousarray(rng.normal(size=(4, n)))
        y = np.ascontiguousarray(rng.normal(size=4))
        _kernels.rk4_dense(p, q, 0.0, phi, y, 1e-2, 50)
        assert np.array_equal(p, p.T)

    # Multi-row blocks (m > 1) against the per-step reference.

    @staticmethod
    def _case(n, m, seed=5):
        rng = np.random.default_rng(seed)
        p0 = np.linalg.inv(_spd(rng, n))
        p0 = 0.5 * (p0 + p0.T)
        return p0, rng.normal(size=n), rng.normal(size=(m, n)), rng.normal(size=m)

    # m = 8 at n = 5 takes the thin-QR path (more rows than features).  The
    # backward runs stay inside a quarter of the blow-up time 1 / max eig(G).
    @pytest.mark.parametrize("h, nsteps", [(1e-2, 100), (-1e-3, 100)])
    @pytest.mark.parametrize("n", [5, 100])
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_multi_row_matches_numpy_reference(self, m, n, h, nsteps):
        p0, q0, phi, y = self._case(n, m)
        _assert_close(*_both(p0, q0, 0.5, phi, y, h, nsteps))

    @pytest.mark.parametrize("m", [4, 8])
    def test_multi_row_long_run(self, m):
        p0, q0, phi, y = self._case(5, m)
        _assert_close(*_both(p0, q0, 0.5, phi, y, 1e-4, 10_000))

    def test_duplicate_rows(self):
        # G = phi p0 phi^T is singular: two of its eigenvalues are zero.
        p0, q0, phi, y = self._case(6, 2)
        phi = np.vstack([phi, phi])
        y = np.concatenate([y, y[::-1]])
        _assert_close(*_both(p0, q0, 0.5, phi, y, 1e-2, 100))

    def test_zero_block(self):
        # p and q stay put, only the loss accumulates.
        p0, q0, _, y = self._case(6, 3)
        phi = np.zeros((3, 6))
        got, ref = _both(p0, q0, 0.5, phi, y, 1e-2, 100)
        assert np.array_equal(got[0], p0)
        assert np.array_equal(got[1], q0)
        _assert_close(got, ref)

    @pytest.mark.parametrize("m", [4, 8])
    @pytest.mark.parametrize("h", [1e-3, -1e-3])
    def test_p_q_do_not_depend_on_r(self, m, h):
        p0, q0, phi, y = self._case(5, m)
        _assert_p_q_independent_of_r(lambda r0: _both(p0, q0, r0, phi, y, h, 100))

    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_exact_run_shares_the_factors(self, m):
        # The RK4 and the exact (Woodbury) update factor the same state and
        # block identically; only the integrals c differ.  m = 8 > n = 5
        # takes the thin-QR path.
        p0, q0, phi, y = self._case(5, m)
        dense = _kernels.rk4_dense(p0.copy(), q0.copy(), 0.5, phi, y, 1e-2, 100)
        exact = _kernels.exact_dense(p0.copy(), q0.copy(), 0.5, phi, y, 1.0)
        assert np.array_equal(dense.w, exact.w)
        assert np.array_equal(dense.bh, exact.bh)
        assert dense.running is None and exact.running is None

    def test_add_then_remove(self):
        # The edit regime of Gaussian blocks at n = 100, m = 4 from p0 = I:
        # h * max eig(G) is about 0.1, half of the integration runs backward.
        _, _, phi, y = self._case(100, 4)
        p0, q0 = np.eye(100), np.zeros(100)
        added = _both(p0, q0, 0.0, phi, y, 1e-3, 50)
        _assert_close(*added)
        (p_a, q_a, r_a), (p_b, q_b, r_b) = added
        r_a = _kernels.rk4_dense(p_a, q_a, r_a, phi, y, -1e-3, 50).r
        r_b = _rk4_dense_numpy(p_b, q_b, r_b, phi, y, -1e-3, 50, True, True)
        got, ref = (p_a, q_a, r_a), (p_b, q_b, r_b)
        _assert_close(got, ref)
        assert np.max(np.abs(got[0] - p0)) < 1e-7


def _unit_block(m, n=5):
    # A block whose G = phi phi^T (the G of the state P = I) has largest
    # eigenvalue 1.
    rng = np.random.default_rng(7)
    phi = rng.normal(size=(m, n))
    return phi / math.sqrt(np.linalg.eigvalsh(phi @ phi.T).max()), rng.normal(size=m)


def _dense_run(m, scale, h, nsteps):
    phi, y = _unit_block(m)
    return lambda p, q: _kernels.rk4_dense(p, q, 0.5, scale * phi, y, h, nsteps)


def _diag_run(scale, h, nsteps):
    d = scale * np.linspace(0.25, 1.0, 5)
    return lambda p, q: _kernels.rk4_diag(p, q, 0.5, d, h, nsteps)


def _stiff_run(nsteps):
    # phi = 3 e1 at P = I and h = 0.25: h a = 2.25 is past RK4's limit, though
    # the run stays finite.  Run through, one step gives P11 = -0.625 (exact
    # 0.308) and three give P11 = -2e25.
    phi = np.array([[3.0, 0.0, 0.0, 0.0, 0.0]])
    return lambda p, q: _kernels.rk4_dense(p, q, 0.5, phi, np.ones(1), 0.25, nsteps)


def _exact_run(duration):
    phi, y = _unit_block(2)
    return lambda p, q: _kernels.exact_dense(p, q, 0.5, phi, y, duration)


def _overflow_run(duration):
    # G = phi P phi' overflows to +inf at P = I: 1 + a T = inf would pass the
    # closed form's test and give c = 0, an update that drops the block.
    phi = np.array([[1e200, 1.0, 0.0, 0.0, 0.0]])
    return lambda p, q: _kernels.exact_dense(p, q, 0.5, phi, np.ones(1), duration)


_FORWARD_STIFF = "forward run is too stiff for RK4"
_NOT_FINITE = "phi P phi' is not finite: no step size can follow this run"


class TestFailureContract:
    """A kernel either raises ``NumericsError`` before it writes to p or q, or
    writes an update with finite integrals.  Every case starts from P = +-I,
    where the largest eigenvalue a of G is the block's scale (negated at
    P = -I): a forward run with h a = 100 is too stiff, a backward run of
    length T with a T >= 1 removes what was never added, and one step with
    a T = 0.9 is past RK4's stability limit."""

    @pytest.mark.parametrize("sign, run, match", [
        pytest.param(1.0, _dense_run(1, 1e4, 1e-2, 100), _FORWARD_STIFF,
                     id="dense-m1-forward"),
        pytest.param(1.0, _dense_run(1, 1.0, -0.02, 100), "never added",
                     id="dense-m1-backward"),
        pytest.param(1.0, _dense_run(4, 1e4, 1e-2, 100), _FORWARD_STIFF,
                     id="dense-m4-forward"),
        pytest.param(1.0, _dense_run(4, 1.0, -0.9, 1), "too stiff for RK4",
                     id="dense-m4-backward"),
        pytest.param(1.0, _diag_run(1e4, 1e-2, 100), _FORWARD_STIFF, id="diag-forward"),
        pytest.param(1.0, _diag_run(1.0, -0.9, 1), "too stiff for RK4", id="diag-backward"),
        pytest.param(1.0, _stiff_run(1), _FORWARD_STIFF, id="dense-finite-one-step"),
        pytest.param(1.0, _stiff_run(3), _FORWARD_STIFF, id="dense-finite-three-steps"),
        # An add is refused only where G has an eigenvalue a <= -1/T, here
        # from the indefinite P = -I.
        pytest.param(-1.0, _exact_run(2.0), "ill-conditioned update solve", id="exact-add"),
        pytest.param(1.0, _exact_run(-2.0), "not removable", id="exact-remove"),
        pytest.param(1.0, _overflow_run(1.0), _NOT_FINITE, id="exact-overflow-add"),
        pytest.param(1.0, _overflow_run(-1.0), _NOT_FINITE, id="exact-overflow-remove"),
    ])
    def test_refuses_before_writing(self, sign, run, match):
        p0 = sign * np.eye(5)
        q0 = np.random.default_rng(8).normal(size=5)
        p, q = p0.copy(), q0.copy()
        with pytest.raises(NumericsError, match=match):
            run(p, q)
        assert p.tobytes() == p0.tobytes() and q.tobytes() == q0.tobytes()

    def test_forward_blow_up_names_a_step_that_passes(self):
        # The largest eigenvalue of diag(d) at P = I is a = 1e4: the named
        # step is 0.87 / a, and a unit-time run at that step passes.
        q0 = np.random.default_rng(8).normal(size=5)
        with pytest.raises(NumericsError) as info:
            _diag_run(1e4, 1e-2, 100)(np.eye(5), q0.copy())
        assert str(info.value) == (
            _FORWARD_STIFF + " at step size 0.01 (stable up to 0.00017); "
            "use a smaller step size, e.g. 8.7e-05")
        nsteps = math.ceil(1.0 / 8.7e-5)
        d = 1e4 * np.linspace(0.25, 1.0, 5)
        p, q = np.eye(5), q0.copy()
        run = _kernels.rk4_diag(p, q, 0.5, d, 8.7e-5, nsteps, 1.0 - (nsteps - 1) * 8.7e-5)
        assert np.isfinite(run.r) and np.isfinite(p).all() and np.isfinite(q).all()

    def test_forward_blow_up_of_a_negative_eigenvalue_names_no_step(self):
        # At P = -I, G has a = -1e4, and s = 1 / (1 + a t) blows up at
        # t = 1e-4, inside the run, whatever the step.
        with pytest.raises(NumericsError) as info:
            _diag_run(1e4, 1e-6, 1000)(-np.eye(5), np.zeros(5))
        assert str(info.value) == (
            "forward run of length 0.001 reaches the blow-up time 0.0001 of this "
            "state: P is not positive definite, and no smaller step size can follow it")


def _one_step(x):
    # s after one RK4 step of ds/dt = -s^2 of size x from s = 1.
    return 1.0 - _kernels._rk4_decay(1.0, x, 1, x)


class TestUpdate:
    @pytest.mark.parametrize("n, m", [(1, 1), (10, 1), (10, 4), (21, 3), (100, 4)])
    def test_symmetrizes_as_the_half_sum(self, n, m):
        # The in-place p += p.T.copy(); p *= 0.5 gives the bits of
        # 0.5 * (p + p.T), and an exactly symmetric p, also from a p0 that is
        # not symmetric, as a checkpoint may carry.
        rng = np.random.default_rng(n + m)
        spd, q0 = _spd(rng, n), rng.normal(size=n)
        phi, y = rng.normal(size=(m, n)) / n, rng.normal(size=m)
        for p0 in (spd, spd + 1e-3 * rng.normal(size=(n, n))):
            a, w, bh, _ = _kernels._factors(p0, q0, phi, y)
            c = [0.01 * (i + 1) for i in range(len(a))]
            p, q = p0.copy(), q0.copy()
            _kernels._update(p, q, 0.0, w, bh, c, 0.0)
            ref = p0 - (w * np.array(c)).dot(w.T)
            ref = 0.5 * (ref + ref.T)
            assert p.tobytes() == ref.tobytes()
            assert np.array_equal(p, p.T)


class TestPreCheck:
    """``_check_run`` refuses every RK4 run it cannot follow before its first
    step, from the eigenvalues a alone; every run it passes has finite
    integrals."""

    def test_decaying_step_stays_in_the_unit_interval_below_the_limit(self):
        limit = _kernels._DECAY_LIMIT
        below = math.nextafter(limit, 0.0)
        assert 0.0 < _one_step(below) < 1.0
        assert _one_step(limit) <= 0.0
        assert all(0.0 < _one_step(x) < 1.0 for x in np.linspace(1e-9, below, 1001))

    def test_growing_step_stays_below_the_exact_factor(self):
        # From s = 1, one backward step of size x has the exact factor 1 / (1 - x).
        eps = np.finfo(float).eps
        for x in np.linspace(1e-9, 1.0 - 1e-9, 10_001).tolist():
            assert _one_step(-x) <= (1.0 + 4.0 * eps) / (1.0 - x)

    # Each a is drawn as its product with |h|, around both limits.
    @settings(max_examples=300, deadline=None)
    @given(
        ha=hst.lists(hst.one_of(hst.floats(-2.0, 2.0),
                                hst.sampled_from([math.inf, -math.inf, math.nan])),
                     min_size=1, max_size=4),
        h=hst.floats(1e-6, 10.0),
        backward=hst.booleans(),
        nsteps=hst.integers(1, 50),
        share=hst.floats(0.01, 1.0),
    )
    def test_refuses_before_any_step_or_integrates_finitely(
        self, ha, h, backward, nsteps, share
    ):
        a = [x / h for x in ha]
        h = -h if backward else h
        calls = []
        decay = _kernels._rk4_decay

        def counted(*args):
            calls.append(args)
            return decay(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_rk4_decay", counted)
            try:
                c, _ = _kernels._rk4_integrals(a, h, nsteps, share * h)
            except NumericsError:
                assert not calls
            else:
                assert len(calls) == len(a) and all(map(math.isfinite, c))


class TestSingleRowKernel:
    """Single-row blocks against the per-step dense reference."""

    @staticmethod
    def _case():
        rng = np.random.default_rng(4)
        n = 10
        p0 = np.linalg.inv(_spd(rng, n))
        p0 = 0.5 * (p0 + p0.T)
        q0 = rng.normal(size=n)
        phi = rng.normal(size=(1, n))
        y = rng.normal(size=1)
        return p0, q0, phi, y

    # h * nsteps is one time unit either way: backward runs stay well inside
    # the blow-up time 1 / (phi^T p0 phi) of this instance.
    @pytest.mark.parametrize(
        "h, nsteps", [(1e-2, 100), (-1e-2, 100), (1e-4, 10_000), (-1e-4, 10_000)]
    )
    def test_matches_numpy_reference_forward_and_backward(self, h, nsteps):
        p0, q0, phi, y = self._case()
        _assert_close(*_both(p0, q0, 0.5, phi, y, h, nsteps))

    @pytest.mark.parametrize("h", [1e-3, -1e-3])
    def test_p_q_do_not_depend_on_r(self, h):
        p0, q0, phi, y = self._case()
        _assert_p_q_independent_of_r(lambda r0: _both(p0, q0, r0, phi, y, h, 500))

    def test_zero_feature_row(self):
        # a0 = phi^T p phi = 0: p and q stay put, only the loss accumulates.
        p0, q0, _, y = self._case()
        phi = np.zeros((1, p0.shape[0]))
        (p_a, q_a, r_a), (_, _, r_b) = _both(p0, q0, 0.5, phi, y, 1e-2, 100)
        assert np.array_equal(p_a, p0)
        assert np.array_equal(q_a, q0)
        assert abs(r_a - r_b) < 1e-13


class TestDiagKernel:
    """The diagonal weight flow, run in the row space of diag(sqrt(d)),
    against the per-step reference ``_rk4_diag_numpy``."""

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(3)
        n = 5
        p0 = np.linalg.inv(_spd(rng, n))
        q0 = rng.normal(size=n)
        d = np.ascontiguousarray(rng.uniform(0.0, 1.0, size=n))
        p_a, q_a = p0.copy(), q0.copy()
        r_a = _kernels.rk4_diag(p_a, q_a, 0.0, d, 1e-2, 100).r
        p_b, q_b = p0.copy(), q0.copy()
        r_b = _rk4_diag_numpy(p_b, q_b, 0.0, d, 1e-2, 100, True, True)
        assert np.max(np.abs(p_a - p_b)) < 1e-13
        assert np.max(np.abs(q_a - q_b)) < 1e-13
        assert abs(r_a - r_b) < 1e-13

    @staticmethod
    def _case(n, seed=6, zeros=0, scale=1.0):
        rng = np.random.default_rng(seed)
        p0 = np.linalg.inv(_spd(rng, n) / n)
        p0 = 0.5 * (p0 + p0.T)
        d = rng.uniform(0.1, 1.0, size=n)
        d[rng.permutation(n)[:zeros]] = 0.0
        # Scale d so that the largest eigenvalue of diag(sqrt(d)) p0 diag(sqrt(d))
        # is `scale`: a backward run of unit time then ends at a T = scale.
        root = np.sqrt(d)
        d *= scale / np.linalg.eigvalsh(root[:, None] * p0 * root).max()
        return p0, rng.normal(size=n), d

    @staticmethod
    def _both(p0, q0, r0, d, h, nsteps):
        p_a, q_a = p0.copy(), q0.copy()
        r_a = _kernels.rk4_diag(p_a, q_a, r0, d, h, nsteps).r
        p_b, q_b = p0.copy(), q0.copy()
        r_b = _rk4_diag_numpy(p_b, q_b, r0, d, h, nsteps, True, True)
        return (p_a, q_a, r_a), (p_b, q_b, r_b)

    @pytest.mark.parametrize("h", [1e-2, -1e-2])
    @pytest.mark.parametrize("n, zeros", [(6, 0), (6, 3), (100, 0), (100, 40)])
    def test_forward_and_backward(self, n, zeros, h):
        # Backward runs end at a T = 0.5, inside the blow-up time.
        p0, q0, d = self._case(n, zeros=zeros, scale=0.5)
        _assert_close(*self._both(p0, q0, 0.5, d, h, 100))

    @pytest.mark.parametrize("n", [6, 100])
    def test_backward_close_to_blow_up(self, n):
        # a T = 0.9: the largest direction grows tenfold over the run.
        p0, q0, d = self._case(n, scale=0.9)
        _assert_close(*self._both(p0, q0, 0.5, d, -1e-2, 100))

    @pytest.mark.parametrize("h", [1e-4, -1e-4])
    def test_long_run(self, h):
        p0, q0, d = self._case(6, zeros=1, scale=0.5)
        _assert_close(*self._both(p0, q0, 0.5, d, h, 10_000))

    @pytest.mark.parametrize("h", [1e-3, -1e-3])
    def test_p_q_do_not_depend_on_r(self, h):
        p0, q0, d = self._case(6, zeros=2, scale=0.5)
        _assert_p_q_independent_of_r(lambda r0: self._both(p0, q0, r0, d, h, 100))

    @pytest.mark.parametrize("zeros", [0, 2])
    def test_keeps_p_exactly_symmetric(self, zeros):
        p0, q0, d = self._case(6, zeros=zeros)
        p = p0 + 1e-3 * np.triu(np.ones_like(p0), 1)  # start from an asymmetric p
        _kernels.rk4_diag(p, q0.copy(), 0.0, d, 1e-2, 50)
        assert np.array_equal(p, p.T)

    def test_zero_weights_leave_state_put(self):
        p0, q0, _ = self._case(6)
        p, q = p0.copy(), q0.copy()
        assert _kernels.rk4_diag(p, q, 0.5, np.zeros(6), 1e-2, 10).r == 0.5
        assert np.array_equal(p, p0) and np.array_equal(q, q0)

    def test_rejects_negative_weights(self):
        p0, q0, d = self._case(6)
        d[0] = -0.1
        with pytest.raises(ValueError, match="must be >= 0"):
            _kernels.rk4_diag(p0.copy(), q0.copy(), 0.0, d, 1e-2, 10)

    @pytest.mark.parametrize("h", [1e-2, -1e-2])
    def test_final_step_of_its_own_size(self, h):
        # nsteps - 1 steps of size h and one of size last, in one call.
        p0, q0, d = self._case(6, zeros=1, scale=0.5)
        p_a, q_a = p0.copy(), q0.copy()
        r_a = _kernels.rk4_diag(p_a, q_a, 0.5, d, h, 40, 0.3 * h).r
        p_b, q_b = p0.copy(), q0.copy()
        r_b = _rk4_diag_numpy(p_b, q_b, 0.5, d, h, 39, True, True)
        r_b = _rk4_diag_numpy(p_b, q_b, r_b, d, 0.3 * h, 1, True, True)
        _assert_close((p_a, q_a, r_a), (p_b, q_b, r_b))

    @pytest.mark.parametrize("h", [1e-2, -1e-2])
    def test_factors_give_every_intermediate_state(self, h):
        p0, q0, d = self._case(6, zeros=2, scale=0.5)
        run = _kernels.rk4_diag(p0.copy(), q0.copy(), 0.5, d, h, 31, trail=True)
        w, bh, c = run.w, run.bh, run.running
        assert c.shape == (30, 4)
        p_b, q_b, r_b = p0.copy(), q0.copy(), 0.5
        for c_k in c:
            r_b = _rk4_diag_numpy(p_b, q_b, r_b, d, h, 1, True, True)
            got = (p0 - (w * c_k).dot(w.T), q0 - w.dot(bh * c_k), 0.5 - 0.5 * c_k.dot(bh * bh))
            _assert_close(got, (p_b, q_b, r_b))


class TestTrajectoryKernel:
    X0 = np.array([1.0, 0.8, 0.5])

    def test_matches_numpy_reference(self):
        a = _kernels.integrate_ko(self.X0, 1e-3, 500)
        b = _integrate_ko_numpy(self.X0, 1e-3, 500)
        assert np.max(np.abs(a - b)) < 1e-13

    @pytest.mark.parametrize("nsteps", [0, 1, 300, 500, 10_000])
    @pytest.mark.parametrize("h", [1e-4, 1e-3, -1e-3, 1e-2, 0.05])
    def test_bit_identical_to_numpy_reference(self, h, nsteps):
        ref = _integrate_ko_numpy(self.X0, h, nsteps)
        assert np.isfinite(ref).all()
        assert np.array_equal(_kernels.integrate_ko(self.X0, h, nsteps), ref)

    @pytest.mark.parametrize("kind", ["list", "tuple", "readonly"])
    def test_accepts_any_three_vector(self, kind):
        x0 = self.X0.copy()
        if kind == "readonly":
            x0.flags.writeable = False
        else:
            x0 = {"list": list, "tuple": tuple}[kind](x0.tolist())
        got = _kernels.integrate_ko(x0, 1e-3, 300)
        assert np.array_equal(got, _integrate_ko_numpy(self.X0, 1e-3, 300))

    def test_result_is_a_fresh_writable_array(self):
        x0 = self.X0.copy()
        x0.flags.writeable = False
        got = _kernels.integrate_ko(x0, 1e-3, 7)
        assert got.shape == (8, 3) and got.dtype == np.float64
        assert got.flags.c_contiguous and got.flags.writeable and got.flags.owndata
        assert not np.shares_memory(got, x0)
        got[0, 0] = 2.0
        assert x0[0] == 1.0


def _decay_order_ratio(a, t, ha):
    """The error of ``_rk4_decay`` against the closed form t / (1 + a t), at the
    step h = t / N with |h| a <= ha and N >= 8, over its error at h / 2."""
    nsteps = max(8, math.ceil(a * abs(t) / ha))
    h = t / nsteps
    exact = t / (1.0 + a * t)
    coarse = abs(_kernels._rk4_decay(a, h, nsteps, h) - exact)
    fine = abs(_kernels._rk4_decay(a, h / 2, 2 * nsteps, h / 2) - exact)
    assume(fine >= 1e-11 * abs(exact))  # below that, rounding blurs the ratio
    return coarse / fine


class TestDecayOrder:
    """RK4 converges at order 4: halving the step divides the error by 16."""

    @settings(max_examples=150, deadline=None)
    @given(a=hst.floats(0.1, 10.0), duration=hst.floats(0.1, 2.0), ha=hst.floats(0.02, 0.1))
    def test_forward(self, a, duration, ha):
        assert 15.0 <= _decay_order_ratio(a, duration, ha) <= 17.0

    @settings(max_examples=150, deadline=None)
    @given(a=hst.floats(0.1, 10.0), reach=hst.floats(0.05, 0.8), ha=hst.floats(0.02, 0.1))
    def test_backward(self, a, reach, ha):
        # A backward run of length T = reach / a grows s to 1 / (1 - a T), so
        # the bound is on the last step's h a s; |h| a <= 0.1 alone lets the
        # ratio fall to 13.7 near a T = 0.8.
        assert 15.0 <= _decay_order_ratio(a, -reach / a, ha * (1.0 - reach)) <= 17.0


def _loop_decay(a, h, nsteps, last, trail=None):
    """``_rk4_decay`` stepped over every step of the run: the reference that
    short runs equal bit for bit and long ones match in accuracy.  ``trail``
    receives the running sums after each step of size h, in units of h/6."""
    s = 1.0
    c = 0.0
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
            s -= ha6 * w
            if record is not None:
                record[k] = acc
        c += acc * (step / 6.0)
    return c


def _loop_trail(a, h, nsteps, last):
    """c and the running c after each step of size h, from ``_loop_decay``."""
    trail = np.empty(nsteps - 1)
    c = _loop_decay(a, h, nsteps, last, memoryview(trail))
    trail *= h / 6.0
    return c, trail


def _traced(a, h, nsteps, last):
    """c and the trail of one eigenvalue, as a traced kernel run gets them."""
    c, running = _kernels._rk4_integrals([a], h, nsteps, last, True)
    return c[0], running[:, 0]


def _decay_reference(a, h, nsteps, last):
    """The recurrence of ``_loop_decay`` in 50-digit decimal arithmetic, from
    the same float inputs: c and the running c after each step of size h."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, s, c = decimal.Decimal(a), decimal.Decimal(1), decimal.Decimal(0)
        trail = []
        for step in [decimal.Decimal(h)] * (nsteps - 1) + [decimal.Decimal(last)]:
            g = step * a * s / 2
            m2sq = (1 - g) ** 2
            m3sq = (1 - g * m2sq) ** 2
            m4 = 1 - 2 * g * m3sq
            w = (1 + 2 * (m2sq + m3sq) + m4 * m4) * s * s
            c += step / 6 * w
            s -= step * a / 6 * w
            trail.append(c)
        return c, trail[:-1]


def _rel_err(values, reference):
    """The largest relative error of the floats ``values`` against the
    decimals ``reference``."""
    return max(float(abs(decimal.Decimal(v) - r) / abs(r))
               for v, r in zip(np.atleast_1d(values).tolist(), reference))


_LIMIT = _kernels._DECAY_LIMIT


class TestDecayAccuracy:
    """The jumped ``_rk4_decay`` is no less accurate than the loop over every
    step, against a 50-digit reference of the same recurrence, in c and in
    every entry of its trail; a traced run gives the untraced c, and every
    trail grows strictly in magnitude."""

    @pytest.mark.parametrize("a, h, nsteps, last", [
        pytest.param(3.0, 1e-3, 2000, 7e-4, id="forward"),
        pytest.param(0.5, 1e-2, 300, 4e-3, id="forward-short-steps"),
        pytest.param(40.0, 1e-3, 1000, 1e-3, id="forward-decades"),
        pytest.param(0.5e3, 1e-3, 500, 1e-3, id="stiff-0.5"),
        pytest.param(1.2e2, 1e-2, 100, 1e-2, id="stiff-1.2"),
        pytest.param(0.999 * _LIMIT / 1e-3, 1e-3, 800, 3e-4, id="stiff-at-the-limit"),
        pytest.param(0.5, -1e-3, 1000, -1e-3, id="backward-aT-0.5"),
        pytest.param(1.8, -1e-3, 500, -1e-3, id="backward-aT-0.9"),
        # a T = 0.94: close to blow-up, where the loop loses most accuracy.
        pytest.param(0.94, -1e-3, 1000, -1e-3, id="backward-aT-0.94"),
        pytest.param(4.85, -1e-4, 2000, -1e-4, id="backward-aT-0.97"),
        pytest.param(-0.9, 1e-3, 1000, 1e-3, id="growing-forward"),
        pytest.param(0.0, 1e-3, 500, 1e-3, id="zero"),
        pytest.param(0.0, -1e-3, 500, -1e-3, id="zero-backward"),
        pytest.param(1e-300, 1e-3, 500, 1e-3, id="tiny"),
        pytest.param(5e-324, 1e-3, 500, 1e-3, id="subnormal"),
        pytest.param(5e-324, -1e-3, 500, -1e-3, id="subnormal-backward"),
        pytest.param(-5e-324, -1e-3, 500, -1e-3, id="subnormal-growing"),
    ])
    def test_no_worse_than_the_loop(self, a, h, nsteps, last):
        assert nsteps - 1 >= _kernels._JUMP_MIN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (c,), _ = _kernels._rk4_integrals([a], h, nsteps, last)
            traced, trail = _traced(a, h, nsteps, last)
        assert traced == c
        loop_c, loop_trail = _loop_trail(a, h, nsteps, last)
        ref_c, ref_trail = _decay_reference(a, h, nsteps, last)
        assert _rel_err(c, [ref_c]) <= _rel_err(loop_c, [ref_c])
        assert _rel_err(trail, ref_trail) <= _rel_err(loop_trail, ref_trail)
        assert np.all(np.diff(np.abs(trail)) > 0.0)


class TestShortJumpedRuns:
    """Every jumped length up to 64 full steps, from ``_JUMP_MIN`` on, keeps
    c and each trail entry within 2^-51, two units in the last place of a
    relative error, of the loop's relative error against the 50-digit
    reference.  Over these 264 runs the jump was worse than the loop by at
    most 3.6e-16 (64 steps backward to 0.8 of the blow-up time; 2.6e-16
    below 64 steps): on short runs the loop's own error is a fraction of a
    unit, and the jump's rounding is about one unit."""

    def test_the_shortest_jump_is_longer_than_the_longest_head(self):
        # A decaying run steps at most 1 / rho* steps of its head before the
        # jump, so a shorter run would write past its trail.
        assert _kernels._JUMP_MIN > 1.0 / _kernels._RHO_STAR

    @pytest.mark.parametrize("ha, back", [
        (1e-3, False), (0.05, False), (0.1, False), (1.7, False), (-0.1, True),
        (0.05, True), (0.8, True), (-0.5, False),
    ])
    def test_within_the_loop_error(self, ha, back):
        h = -1e-3 if back else 1e-3
        last = 0.3 * h
        bound = 2.0 ** -51
        for nsteps in range(_kernels._JUMP_MIN + 1, 66):
            # As in ``TestShortRunsAreStepped``: a growing run covers the
            # share ha of its blow-up time, a decaying one has h a = ha.
            a = ha / (1e-3 * nsteps) if (ha < 0.0) != back else ha / 1e-3
            c, trail = _traced(a, h, nsteps, last)
            assert c == _kernels._rk4_integrals([a], h, nsteps, last)[0][0]
            loop_c, loop_trail = _loop_trail(a, h, nsteps, last)
            ref_c, ref_trail = _decay_reference(a, h, nsteps, last)
            assert _rel_err(c, [ref_c]) <= _rel_err(loop_c, [ref_c]) + bound
            assert _rel_err(trail, ref_trail) <= _rel_err(loop_trail, ref_trail) + bound
            assert np.all(np.diff(np.abs(trail)) > 0.0)


class TestShortRunsAreStepped:
    """A run of fewer than ``_JUMP_MIN`` full steps is the loop over every
    step, bit for bit, in c and in its trail."""

    @pytest.mark.parametrize("nsteps", [2, 3, 17, _kernels._JUMP_MIN])
    @pytest.mark.parametrize("ha, back", [
        (0.0, False), (1e-300, False), (5e-324, True), (0.05, False), (0.05, True),
        (1.7, False), (-0.5, False), (0.5, True),
    ])
    def test_bit_for_bit(self, nsteps, ha, back):
        h = -1e-3 if back else 1e-3
        # A growing run covers a fixed share of its blow-up time, whatever
        # nsteps; a decaying one has h a = ha.
        a = ha / (1e-3 * nsteps) if (ha < 0.0) != back else ha / 1e-3
        last = 0.3 * h
        c, trail = _traced(a, h, nsteps, last)
        loop_c, loop_trail = _loop_trail(a, h, nsteps, last)
        assert c == loop_c == _kernels._rk4_integrals([a], h, nsteps, last)[0][0]
        assert trail.tobytes() == loop_trail.tobytes()

    def test_one_step(self):
        assert _kernels._rk4_decay(2.0, 0.1, 1, 0.1) == _loop_decay(2.0, 0.1, 1, 0.1)


def _series_mul(p, q, order):
    out = [Fraction(0)] * order
    for i, pi in enumerate(p[:order]):
        for j, qj in enumerate(q[:order - i]):
            out[i + j] += pi * qj
    return out


def _series_sum(order, *terms):
    # sum of factor * series over the (factor, series) pairs
    out = [Fraction(0)] * order
    for factor, series in terms:
        for i, x in enumerate(series[:order]):
            out[i] += factor * x
    return out


def _abel_coefficients(top):
    """b_1 .. b_top of the Abel function 1/rho + sum_j b_j rho^j of the RK4
    map F(rho) = rho - rho^2 W(rho/2) / 6, in exact rationals: with
    R = 1/F - 1/rho - 1, the power rho^(j+1) of A(F) - A(rho) + R = 0 gives
    b_j, since F^j - rho^j = -j rho^(j+1) + higher powers.  Also returns R."""
    order = top + 3
    one = [Fraction(1)]
    g = [Fraction(0), Fraction(1, 2)]
    m2 = _series_sum(order, (1, one), (-1, g))
    m2sq = _series_mul(m2, m2, order)
    m3 = _series_sum(order, (1, one), (-1, _series_mul(g, m2sq, order)))
    m3sq = _series_mul(m3, m3, order)
    m4 = _series_sum(order, (1, one), (-2, _series_mul(g, m3sq, order)))
    w = _series_sum(order, (1, one), (2, m2sq), (2, m3sq), (1, _series_mul(m4, m4, order)))
    f = _series_sum(order, (1, [0, 1]), (Fraction(-1, 6), [0, 0] + w))
    # 1/F = (1/rho) sum_k t^k with t = 1 - F/rho.
    t = _series_sum(order, (1, one), (-1, f[1:]))
    inv, power = one + [Fraction(0)] * order, one
    for _ in range(order):
        power = _series_mul(power, t, order)
        inv = _series_sum(order, (1, inv), (1, power))
    r = _series_sum(order, (1, inv[1:]), (-1, one))
    powers, b = [one], [None]
    for _ in range(top):
        powers.append(_series_mul(powers[-1], f, order))
    for j in range(1, top + 1):
        known = r[j + 1] + sum(b[i] * powers[i][j + 1] for i in range(1, j))
        b.append(known / j)
    return b, r


class TestAbelSeries:
    """The constants of the jump: the b_j literals, the degree of A by the
    largest |rho| of a jump, and the head that brings rho below rho*."""

    B, R = _abel_coefficients(26)

    def test_no_log_term_and_a_starts_at_rho_cubed(self):
        # F = rho / (1 + rho) + O(rho^6): R starts at rho^4, so A has no log
        # term (that needs a rho^1 in R) and b_1 = b_2 = 0.
        assert self.R[:4] == [0, 0, 0, 0] and self.R[4] == Fraction(-1, 24)
        assert self.B[1] == self.B[2] == 0
        assert self.B[3:8] == [Fraction(-1, 72), 0, Fraction(13, 576),
                               Fraction(17, 576), Fraction(25, 1344)]

    def test_literals_are_the_nearest_floats(self):
        abel = _kernels._ABEL
        assert list(abel) == [float(b) for b in self.B[3:3 + len(abel)]]

    def test_each_degree_reaches_its_bound(self):
        # The terms left out of A (to j = 26) sum to below 2^-60 / x at the
        # reach x of each degree, the full degree up to 0.117.
        top = len(_kernels._ABEL) + 2
        for reach, degree in (*_kernels._ABEL_DEGREES, (0.117, top)):
            x = Fraction(reach)
            left_out = sum(self.B[j] * x ** j for j in range(degree + 1, 27))
            assert abs(left_out) * x < Fraction(1, 2 ** 60)

    def test_the_head_ends_within_the_reach_of_the_full_degree(self):
        # Stepping the head's count of steps from any decaying rho > rho*
        # leaves rho at most 4e-6 above rho*.
        star = _kernels._RHO_STAR
        for rho0 in np.linspace(star, _LIMIT, 20_001)[1:-1].tolist():
            head = math.ceil(1.0 / star - 1.0 / rho0)
            s, _ = _kernels._steps(rho0, 1.0, 1.0, head, 0.0)
            assert 0.0 < s * rho0 <= star + 4e-6

    def test_trail_rows_equal_the_scalar_jumps(self):
        # Rows of different degree, head and length share one array
        # expression; each entry has the bits of the scalar jump.
        h = 1e-3
        jumps = [(0, 700, -1e-4, 1.0, 0.0, _kernels._ABEL[0::-1]),
                 (10, 1300, 0.0999, 0.0625, 2.5, _kernels._ABEL[::-1]),
                 (3, 0, 0.05, 0.5, 1.0, _kernels._ABEL[5::-1]),
                 (0, 1500, 0.003, 1.0, 0.0, _kernels._ABEL[3::-1])]
        running = np.full((len(jumps), 1600), np.nan)
        _kernels._fill_jumps(running, jumps, h)
        for row, jump in zip(running, jumps):
            k0, count = jump[:2]
            assert np.isnan(row[:k0]).all() and np.isnan(row[k0 + count:]).all()
            for j in range(1, count + 1):
                rho, s, c0, coefs = jump[2:]
                assert row[k0 + j - 1] == c0 + _kernels._jump(rho, s, j, h, coefs)[0]

    def test_traced_rows_equal_runs_of_one_eigenvalue(self):
        # A growing, a zero, a tiny, a mild and a stiff eigenvalue in one
        # traced run over several trail chunks.
        h, nsteps = 1e-3, 1500
        a = [-0.5 / (h * nsteps), 0.0, 1e-300, 0.05 / h, 1.7 / h, 40.0]
        c, running = _kernels._rk4_integrals(a, h, nsteps, h, True)
        for i, ai in enumerate(a):
            one_c, one_trail = _traced(ai, h, nsteps, h)
            assert c[i] == one_c
            assert running[:, i].tobytes() == one_trail.tobytes()


class TestOverflowWithoutWarnings:
    """A block whose u = P phi^T or G = phi P phi^T overflows is refused with
    ``NumericsError`` and no NumPy warning, on the RK4 and the exact path."""

    @staticmethod
    def _refuses(run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="not finite: no step size"):
                run()

    @pytest.mark.parametrize("fit", [
        lambda hyper, blocks: engine.fit(hyper, blocks, engine.IntegrationConfig(step_h=1e-3)),
        rls.rls_fit,
    ], ids=["riccati", "rls"])
    def test_overflowing_u(self, fit):
        # P = diag(1e300, 1): u = P phi^T = (1e310, 1) overflows.
        hyper = Hyperparams(gamma=[1e-300, 1.0], theta0=[0.0, 0.0])
        self._refuses(lambda: fit(hyper, [DataBlock(phi=[[1e10, 1.0]], y=[1.0])]))

    @pytest.mark.parametrize("duration", [1.0, -1.0])
    @pytest.mark.parametrize("kernel", ["rk4", "exact"])
    def test_overflowing_multi_row_g(self, kernel, duration):
        phi, y = np.array([[1e200, 1.0], [1.0, 2e200]]), np.ones(2)
        p, q = np.eye(2), np.zeros(2)
        if kernel == "rk4":
            run = lambda: _kernels.rk4_dense(p, q, 0.0, phi, y, 1e-3 * duration, 1000)
        else:
            run = lambda: _kernels.exact_dense(p, q, 0.0, phi, y, duration)
        self._refuses(run)
        assert np.array_equal(p, np.eye(2)) and not q.any()
