from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from ricreg import (
    DataBlock,
    Hyperparams,
    IntegrationConfig,
    NumericsError,
    RiccatiState,
    RlsState,
    fit,
    loss_from_state,
    new_state,
    rls_add,
    rls_fit,
    rls_remove,
    solve_direct,
)
from ricreg import _kernels
from ricreg.problems import relative_l1


def rand_instance(rng, n, m, count):
    hyper = Hyperparams(gamma=rng.uniform(0.5, 2.0, n), theta0=rng.normal(size=n))
    blocks = [
        DataBlock(
            phi=rng.normal(size=(m, n)),
            y=rng.normal(size=m),
            lam=float(rng.uniform(0.1, 2.0)),
        )
        for _ in range(count)
    ]
    return hyper, blocks


class TestRlsAdd:
    def test_zero_weight_is_noop(self):
        hyper = Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0])
        st = new_state(hyper)
        out = rls_add(st, DataBlock(phi=[[1.0, 1.0]], y=[1.0], lam=0.0))
        assert out.p is st.p and out.q is st.q
        assert (out.r, out.elapsed) == (st.r, st.elapsed)

    def test_hand_computed_scalar_update(self):
        # p0 = 1, phi = [1], y = [1], lam = 1:
        # p1 = 1 - 1/(1+1) = 0.5, q1 = 0 + 1*0.5*1 - 0 = 0.5.
        hyper = Hyperparams(gamma=[1.0], theta0=[0.0])
        st = rls_add(new_state(hyper), DataBlock(phi=[[1.0]], y=[1.0]))
        assert st.p[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert st.q[0] == pytest.approx(0.5, abs=1e-15)

    def test_state_matches_direct_inverse(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = int(rng.integers(2, 8))
            hyper, blocks = rand_instance(rng, n, int(rng.integers(1, 4)), 12)
            st = rls_fit(hyper, blocks)
            a = np.diag(hyper.gamma) + sum(b.lam * b.phi.T @ b.phi for b in blocks)
            p_exact = np.linalg.inv(a)
            scale = np.max(np.abs(p_exact))
            assert np.max(np.abs(st.p - p_exact)) <= 1e-10 * scale

    def test_minimizer_matches_oracle(self):
        rng = np.random.default_rng(2)
        hyper, blocks = rand_instance(rng, 6, 2, 30)
        st = rls_fit(hyper, blocks)
        oracle = solve_direct(hyper, blocks)
        assert relative_l1(st.theta_star(hyper), oracle.theta_star) <= 1e-10


class TestRlsRemove:
    def test_add_then_remove_is_identity(self):
        rng = np.random.default_rng(3)
        hyper, blocks = rand_instance(rng, 5, 2, 6)
        st = rls_fit(hyper, blocks)
        extra = DataBlock(phi=rng.normal(size=(2, 5)), y=rng.normal(size=2), lam=0.9)
        st2 = rls_remove(rls_add(st, extra), extra)
        assert np.max(np.abs(st2.p - st.p)) < 1e-12
        assert np.max(np.abs(st2.q - st.q)) < 1e-12

    def test_remove_from_fresh_state_fails(self):
        hyper = Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0])
        blk = DataBlock(phi=[[2.0, 0.0]], y=[1.0], lam=1.0)
        with pytest.raises(NumericsError, match="not removable"):
            rls_remove(new_state(hyper), blk)

    def test_remove_one_of_two_matches_oracle(self):
        rng = np.random.default_rng(4)
        hyper, blocks = rand_instance(rng, 4, 1, 2)
        st = rls_fit(hyper, blocks)
        st2 = rls_remove(st, blocks[1])
        oracle = solve_direct(hyper, blocks[:1])
        assert relative_l1(st2.theta_star(hyper), oracle.theta_star) <= 1e-10


@pytest.mark.parametrize("r", [0.25, None])
@pytest.mark.parametrize("op", [rls_add, rls_remove])
def test_zero_weight_returns_an_rls_state_over_the_same_arrays(op, r, monkeypatch):
    # Whether the result is an RlsState must not depend on the block's weight.
    hyper = Hyperparams(gamma=[1.0, 2.0], theta0=[0.5, -1.0])
    state = RiccatiState(p=[[0.5, 0.1], [0.1, 0.4]], q=[0.2, -0.3], r=r, elapsed=1.5)

    def refuse(*args):
        raise AssertionError("a zero-weight block ran an update")

    monkeypatch.setattr(_kernels, "exact_dense", refuse)
    out = op(state, DataBlock(phi=[[1.0, 2.0], [0.5, -1.0]], y=[1.0, 0.0], lam=0.0))
    assert type(out) is RlsState
    assert out.p is state.p and out.q is state.q
    assert (out.r, out.elapsed) == (r, 1.5)
    assert np.array_equal(out.theta_star(hyper), state.p @ hyper.evaluation_point() + state.q)


class TestRlsInvariants:
    def test_exactness_against_oracle_over_many_instances(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            n = int(rng.integers(1, 21))
            m = int(rng.integers(1, 6))
            count = int(rng.integers(0, 51))
            hyper, blocks = rand_instance(rng, n, m, count)
            st = rls_fit(hyper, blocks)
            oracle = solve_direct(hyper, blocks)
            assert relative_l1(st.theta_star(hyper), oracle.theta_star) <= 1e-10

    def test_inverse_increases_by_block_information(self):
        rng = np.random.default_rng(6)
        hyper, blocks = rand_instance(rng, 5, 3, 4)
        st = new_state(hyper)
        for blk in blocks:
            st_next = rls_add(st, blk)
            increment = np.linalg.inv(st_next.p) - np.linalg.inv(st.p)
            expected = blk.lam * blk.phi.T @ blk.phi
            assert np.max(np.abs(increment - expected)) <= 1e-10 * max(
                1.0, np.max(np.abs(expected))
            )
            st = st_next

    def test_agrees_with_flow_integration_at_fine_step(self):
        rng = np.random.default_rng(7)
        hyper, blocks = rand_instance(rng, 4, 2, 3)
        via_rls = rls_fit(hyper, blocks)
        via_flow = fit(hyper, blocks, IntegrationConfig(step_h=1e-4))
        assert np.max(np.abs(via_rls.p - via_flow.p)) <= 1e-8
        assert np.max(np.abs(via_rls.q - via_flow.q)) <= 1e-8

    def test_disagreement_shrinks_fourth_order_with_step(self):
        rng = np.random.default_rng(8)
        hyper, blocks = rand_instance(rng, 3, 1, 2)
        exact = rls_fit(hyper, blocks)
        errs = {}
        for h in (2e-2, 1e-2):
            st = fit(hyper, blocks, IntegrationConfig(step_h=h))
            errs[h] = np.abs(st.p - exact.p).sum() + np.abs(st.q - exact.q).sum()
        assert errs[2e-2] / errs[1e-2] >= 8.0


# -- the Woodbury update by three Cholesky solves, as the reference ---------------


def _woodbury(state: RlsState, block: DataBlock, signed_lam: float, context: str) -> RlsState:
    phi = block.phi
    u = state.p @ phi.T
    core = np.eye(block.m) + signed_lam * (phi @ u)
    try:
        factor = cho_factor(core)
    except LinAlgError as exc:
        raise NumericsError(context) from exc
    gain = cho_solve(factor, u.T)  # (I + lam phi P phi')^-1 phi P
    p_new = state.p - signed_lam * (u @ gain)
    p_new = 0.5 * (p_new + p_new.T)
    q_new = (
        state.q
        + signed_lam * (p_new @ (phi.T @ block.y))
        - signed_lam * (u @ cho_solve(factor, phi @ state.q))
    )
    if not np.isfinite(p_new).all() or not np.isfinite(q_new).all():
        raise NumericsError(context)
    return RlsState(p=p_new, q=q_new)


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestAgainstWoodbury:
    @pytest.mark.parametrize("n, m", [(6, 1), (6, 2), (6, 3), (6, 4), (6, 5), (3, 5), (2, 7)])
    def test_add_and_remove_match_cholesky_reference(self, n, m):
        rng = np.random.default_rng(100 + 10 * n + m)
        hyper, blocks = rand_instance(rng, n, m, 9)
        st = rls_fit(hyper, blocks[:-1])
        block = blocks[-1]
        added = rls_add(st, block)
        ref = _woodbury(st, block, block.lam, "add")
        assert _rel(added.p, ref.p) <= 1e-12
        assert _rel(added.q, ref.q) <= 1e-12
        removed = rls_remove(added, block)
        ref = _woodbury(added, block, -block.lam, "remove")
        assert _rel(removed.p, ref.p) <= 1e-12
        assert _rel(removed.q, ref.q) <= 1e-12


class TestExactState:
    def test_fit_loss_matches_oracle(self):
        rng = np.random.default_rng(11)
        for n, m, count in [(4, 1, 20), (7, 3, 15), (3, 6, 10), (10, 1, 200)]:
            hyper, blocks = rand_instance(rng, n, m, count)
            st = rls_fit(hyper, blocks)
            expected = solve_direct(hyper, blocks).total_loss
            assert loss_from_state(st, hyper) == pytest.approx(expected, rel=1e-12)
            assert st.elapsed == pytest.approx(sum(b.lam for b in blocks), rel=1e-15)

    def test_add_and_remove_carry_the_loss(self):
        rng = np.random.default_rng(13)
        for n, m in [(5, 1), (4, 3), (2, 6)]:
            hyper, blocks = rand_instance(rng, n, m, 12)
            added = rls_add(rls_fit(hyper, blocks[:-1]), blocks[-1])
            expected = solve_direct(hyper, blocks).total_loss
            assert loss_from_state(added, hyper) == pytest.approx(expected, rel=1e-12)
            removed = rls_remove(rls_fit(hyper, blocks), blocks[0])
            expected = solve_direct(hyper, blocks[1:]).total_loss
            assert loss_from_state(removed, hyper) == pytest.approx(expected, rel=1e-12)

    def test_untracked_loss_stays_untracked(self):
        rng = np.random.default_rng(12)
        hyper, blocks = rand_instance(rng, 3, 2, 2)
        st = RiccatiState(p=np.diag(1.0 / hyper.gamma), q=np.zeros(3), r=None)
        st = rls_remove(rls_add(st, blocks[0]), blocks[0])
        assert st.r is None and st.elapsed == 0.0


class TestRemovalBoundary:
    # G = phi P phi' = diag(4, 1): the largest eigenvalue a = 4 decides, and
    # the exact flow of a removal blows up at a lam = 1.
    P = np.eye(2)
    PHI = [[2.0, 0.0], [0.0, 1.0]]

    def _remove(self, lam):
        st = RiccatiState(p=self.P, q=[0.5, -1.0], r=0.0, elapsed=1.0)
        return rls_remove(st, DataBlock(phi=self.PHI, y=[1.0, 2.0], lam=lam))

    def test_refused_at_and_just_past_the_blow_up(self):
        for lam in (0.25, 0.25 * (1.0 + 1e-12)):
            with pytest.raises(NumericsError, match="not removable"):
                self._remove(lam)

    def test_passes_just_below_the_blow_up(self):
        st = self._remove(0.25 * (1.0 - 1e-12))
        assert np.isfinite(st.p).all() and st.p[0, 0] > 1e10


@settings(max_examples=60, deadline=None)
@given(
    n=hst.integers(1, 8),
    m=hst.integers(1, 10),
    seed=hst.integers(0, 2**32 - 1),
)
def test_add_then_remove_returns_the_state(n, m, seed):
    rng = np.random.default_rng(seed)
    hyper, blocks = rand_instance(rng, n, m, 3)
    st = rls_fit(hyper, blocks[:2])
    back = rls_remove(rls_add(st, blocks[2]), blocks[2])
    assert _rel(back.p, st.p) <= 1e-10
    assert np.max(np.abs(back.q - st.q)) <= 1e-10 * max(1.0, np.max(np.abs(st.q)))
    assert back.r == pytest.approx(st.r, rel=1e-10, abs=1e-10)
    assert back.elapsed == pytest.approx(st.elapsed, rel=1e-12)


def _rational_fit(hyper, blocks):
    """The exact fit in rational arithmetic, as floats: P = A^-1 for
    A = diag(gamma) + sum lam phi' phi, q = P s for s = sum lam phi' y, and
    r = (s' P s - sum lam ||y||^2) / 2."""
    n = hyper.n
    a = [[Fraction(g) if i == j else Fraction(0) for j in range(n)]
         for i, g in enumerate(hyper.gamma.tolist())]
    s = [Fraction(0)] * n
    yy = Fraction(0)
    for block in blocks:
        lam = Fraction(block.lam)
        for row, target in zip(block.phi.tolist(), block.y.tolist()):
            row = [Fraction(v) for v in row]
            target = Fraction(target)
            yy += lam * target * target
            for i in range(n):
                s[i] += lam * row[i] * target
                for j in range(n):
                    a[i][j] += lam * row[i] * row[j]
    # Gauss-Jordan on [A | I]; A is SPD, so every pivot is nonzero.
    aug = [a[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for i in range(n):
            if i != col:
                f = aug[i][col]
                aug[i] = [vi - f * vc for vi, vc in zip(aug[i], aug[col])]
    p = [row[n:] for row in aug]
    q = [sum(p[i][j] * s[j] for j in range(n)) for i in range(n)]
    r = (sum(si * qi for si, qi in zip(s, q)) - yy) / 2
    return np.array([[float(v) for v in row] for row in p]), np.array([float(v) for v in q]), float(r)


class TestFitAgainstRationalReference:
    # (n, [(m, lam), ...]): lam = 0 and mixed weights; m > n; row counts that
    # are not a multiple of n; blocks that straddle an n-row boundary (with
    # n = 5, rows 3-5 and 8-11).
    CASES = {
        "mixed-lam-with-zeros": (4, [(1, 0.5), (1, 0.0), (1, 1.5), (1, 2.0), (1, 0.0),
                                     (1, 0.25), (1, 1.0), (1, 0.75), (1, 1.25), (1, 0.1),
                                     (1, 1.8), (1, 0.6), (1, 0.9)]),
        "m-greater-than-n": (3, [(5, 0.7), (1, 0.0), (4, 1.3), (7, 0.2)]),
        "straddling-blocks": (5, [(3, 1.0), (3, 0.4), (2, 1.6), (4, 0.0), (4, 0.8), (1, 1.1)]),
        "n6-mixed-m": (6, [(1, 0.3), (7, 1.2), (2, 0.0), (4, 0.9), (3, 1.7), (6, 0.5)]),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_rational_reference_and_rls_add_chain(self, name):
        n, shapes = self.CASES[name]
        rng = np.random.default_rng(sorted(self.CASES).index(name))
        hyper = Hyperparams(gamma=rng.uniform(0.5, 2.0, n), theta0=rng.normal(size=n))
        blocks = [DataBlock(phi=rng.normal(size=(m, n)), y=rng.normal(size=m), lam=lam)
                  for m, lam in shapes]
        st = rls_fit(hyper, blocks)
        p, q, r = _rational_fit(hyper, blocks)
        assert _rel(st.p, p) <= 1e-12
        assert _rel(st.q, q) <= 1e-12
        assert abs(st.r - r) <= 1e-12 * abs(r)
        chain = new_state(hyper)
        for block in blocks:
            chain = rls_add(chain, block)
        assert _rel(st.p, chain.p) <= 1e-12
        assert _rel(st.q, chain.q) <= 1e-12
        assert abs(st.r - chain.r) <= 1e-12 * abs(chain.r)
        assert st.elapsed == chain.elapsed
