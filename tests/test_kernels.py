"""The kernels against plain NumPy per-step references.

There is one implementation per kernel and no JIT.  `rk4_dense` and
`rk4_diag` run every block, single- or multi-row, and every diagonal weight
flow as the row-space recurrence, which must agree with the per-step RK4
references below to rounding error.  `integrate_ko` is a scalar loop over
three floats with the same arithmetic as the array reference
`_integrate_ko_numpy`, and must match it bit for bit.  A kernel that fails
raises before it writes to p or q (`TestFailureContract`).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from ricreg import _kernels
from ricreg.model import NumericsError


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


def _exact_run(duration):
    phi, y = _unit_block(2)
    return lambda p, q: _kernels.exact_dense(p, q, 0.5, phi, y, duration)


_FORWARD_BLOW_UP = "integration produced non-finite values; use a smaller step size"


class TestFailureContract:
    """A kernel either raises ``NumericsError`` before it writes to p or q, or
    writes an update with finite integrals.  Every case starts from P = +-I,
    where the largest eigenvalue a of G is the block's scale (negated at
    P = -I): a forward run with h a = 100 blows up, a backward run of length T
    with a T >= 1 removes what was never added, and one step with a T = 0.9
    is past RK4's stability limit."""

    @pytest.mark.parametrize("sign, run, match", [
        pytest.param(1.0, _dense_run(1, 1e4, 1e-2, 100), _FORWARD_BLOW_UP,
                     id="dense-m1-forward"),
        pytest.param(1.0, _dense_run(1, 1.0, -0.02, 100), "never added",
                     id="dense-m1-backward"),
        pytest.param(1.0, _dense_run(4, 1e4, 1e-2, 100), _FORWARD_BLOW_UP,
                     id="dense-m4-forward"),
        pytest.param(1.0, _dense_run(4, 1.0, -0.9, 1), "too stiff for RK4",
                     id="dense-m4-backward"),
        pytest.param(1.0, _diag_run(1e4, 1e-2, 100), _FORWARD_BLOW_UP, id="diag-forward"),
        pytest.param(1.0, _diag_run(1.0, -0.9, 1), "too stiff for RK4", id="diag-backward"),
        # An add is refused only where G has an eigenvalue a <= -1/T, here
        # from the indefinite P = -I.
        pytest.param(-1.0, _exact_run(2.0), "ill-conditioned update solve", id="exact-add"),
        pytest.param(1.0, _exact_run(-2.0), "not removable", id="exact-remove"),
    ])
    def test_refuses_before_writing(self, sign, run, match):
        p0 = sign * np.eye(5)
        q0 = np.random.default_rng(8).normal(size=5)
        p, q = p0.copy(), q0.copy()
        with pytest.raises(NumericsError, match=match):
            run(p, q)
        assert p.tobytes() == p0.tobytes() and q.tobytes() == q0.tobytes()


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
