import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from ricreg import DataBlock, Hyperparams, NumericsError, problems, solve_direct
from ricreg.oracle import normal_system
from ricreg.problems import relative_l1
from ricreg.rng import Xoshiro256pp


class TestSolveDirect:
    def test_no_blocks_returns_prior(self):
        hyper = Hyperparams(gamma=[2.0, 3.0], theta0=[1.5, -0.5])
        sol = solve_direct(hyper, [])
        np.testing.assert_allclose(sol.theta_star, hyper.theta0, atol=1e-15)
        assert sol.data_fit == 0.0
        assert sol.reg_value == pytest.approx(0.0, abs=1e-30)

    def test_hand_solved_instance(self):
        # (I + phi'phi) theta = phi'y with phi = [1, 1], y = 1 gives [1/3, 1/3].
        hyper = Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0])
        sol = solve_direct(hyper, [DataBlock(phi=[[1.0, 1.0]], y=[1.0])])
        np.testing.assert_allclose(sol.theta_star, [1 / 3, 1 / 3], atol=1e-15)
        assert sol.total_loss == pytest.approx(sol.data_fit + sol.reg_value, abs=1e-16)

    def test_first_order_optimality(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            hyper = Hyperparams(
                gamma=rng.uniform(0.5, 3.0, n), theta0=rng.normal(size=n)
            )
            blocks = [
                DataBlock(phi=rng.normal(size=(2, n)), y=rng.normal(size=2))
                for _ in range(5)
            ]
            theta = solve_direct(hyper, blocks).theta_star
            grad = hyper.gamma * (theta - hyper.theta0)
            scale = float(np.abs(hyper.gamma).max())
            for blk in blocks:
                grad = grad + blk.lam * blk.phi.T @ (blk.phi @ theta - blk.y)
                scale += float(np.abs(blk.phi).max() ** 2)
            assert np.max(np.abs(grad)) <= 1e-12 * scale

    def test_block_order_invariance(self):
        rng = np.random.default_rng(1)
        hyper = Hyperparams(gamma=rng.uniform(0.5, 2.0, 4), theta0=rng.normal(size=4))
        blocks = [
            DataBlock(phi=rng.normal(size=(1, 4)), y=rng.normal(size=1))
            for _ in range(6)
        ]
        a = solve_direct(hyper, blocks).theta_star
        b = solve_direct(hyper, blocks[::-1]).theta_star
        assert np.max(np.abs(a - b)) < 1e-12

    def test_weight_splitting_invariance(self):
        rng = np.random.default_rng(2)
        hyper = Hyperparams(gamma=rng.uniform(0.5, 2.0, 3), theta0=np.zeros(3))
        phi, y = rng.normal(size=(1, 3)), rng.normal(size=1)
        whole = solve_direct(hyper, [DataBlock(phi=phi, y=y, lam=1.5)]).theta_star
        split = solve_direct(
            hyper,
            [DataBlock(phi=phi, y=y, lam=0.9), DataBlock(phi=phi, y=y, lam=0.6)],
        ).theta_star
        assert np.max(np.abs(whole - split)) < 1e-13

    def test_zero_weight_blocks_are_ignored(self):
        rng = np.random.default_rng(3)
        hyper = Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0])
        base = [DataBlock(phi=rng.normal(size=(1, 2)), y=rng.normal(size=1))]
        padded = base + [DataBlock(phi=[[9.0, 9.0]], y=[9.0], lam=0.0)]
        assert relative_l1(
            solve_direct(hyper, padded).theta_star,
            solve_direct(hyper, base).theta_star,
        ) == 0.0

    def test_normal_system_matches_block_sums(self):
        rng = np.random.default_rng(4)
        hyper = Hyperparams(gamma=rng.uniform(0.5, 2.0, 4), theta0=rng.normal(size=4))
        blocks = [
            DataBlock(phi=rng.normal(size=(m, 4)), y=rng.normal(size=m), lam=lam)
            for m, lam in ((1, 0.3), (6, 1.7), (2, 0.0), (3, 1.0))
        ]
        a, rhs = normal_system(hyper, blocks)
        ref_a = np.diag(hyper.gamma) + sum(b.lam * b.phi.T @ b.phi for b in blocks)
        ref_rhs = hyper.gamma * hyper.theta0 + sum(b.lam * b.phi.T @ b.y for b in blocks)
        assert relative_l1(a, ref_a) <= 1e-14
        assert relative_l1(rhs, ref_rhs) <= 1e-14
        a, rhs = normal_system(hyper, [])
        assert np.array_equal(a, np.diag(hyper.gamma))
        assert np.array_equal(rhs, hyper.gamma * hyper.theta0)


def _max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _gaussian_blocks(n, m, count, lam):
    rng = Xoshiro256pp(0)
    return [
        DataBlock(phi=[[rng.gaussian() for _ in range(n)] for _ in range(m)],
                  y=[rng.gaussian() for _ in range(m)], lam=lam)
        for _ in range(count)
    ]


class TestAgainstScipyCholesky:
    """The NumPy Cholesky path against scipy's ``cho_factor``/``cho_solve`` on
    the same normal system."""

    @staticmethod
    def _both(hyper, blocks):
        a, rhs = normal_system(hyper, blocks)
        return solve_direct(hyper, blocks).theta_star, cho_solve(cho_factor(a), rhs), a, rhs

    @pytest.mark.parametrize("instance", ["sin10x", "reaction-diffusion", "gaussian-100"])
    def test_benchmark_instances(self, instance):
        if instance == "sin10x":
            hyper = Hyperparams(gamma=np.full(10, 100.0), theta0=np.zeros(10))
            blocks = problems.gen_sin10x(2000, 0).blocks
        elif instance == "reaction-diffusion":
            hyper = Hyperparams(gamma=np.ones(21), theta0=np.full(21, 0.5))
            blocks = problems.gen_reaction_diffusion(15, seed=3, noise_scale=0.1,
                                                     lambda_b=1.0).blocks
        else:
            hyper = Hyperparams(gamma=np.ones(100), theta0=np.zeros(100))
            blocks = _gaussian_blocks(100, 4, 120, 0.05)
        theta, ref, _, _ = self._both(hyper, blocks)
        assert _max_rel(theta, ref) <= 1e-13

    def test_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            hyper = Hyperparams(gamma=rng.uniform(0.1, 10.0, n), theta0=rng.normal(size=n))
            blocks = [DataBlock(phi=rng.normal(size=(3, n)), y=rng.normal(size=3),
                                lam=float(rng.uniform(0.1, 2.0))) for _ in range(8)]
            theta, ref, _, _ = self._both(hyper, blocks)
            assert _max_rel(theta, ref) <= 1e-13

    @pytest.mark.parametrize("cond", [1e6, 1e10, 1e13])
    def test_ill_conditioned_systems(self, cond):
        # Normal matrix Q diag(1 .. cond) Q' (up to gamma = 1e-30), as one
        # block of square-root rows.  Two backward-stable solvers agree to
        # about cond * eps, and each has a residual at rounding level.
        rng = np.random.default_rng(int(np.log10(cond)))
        eps = np.finfo(float).eps
        for n in (5, 30):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            root = q * np.sqrt(np.logspace(0.0, np.log10(cond), n))
            hyper = Hyperparams(gamma=np.full(n, 1e-30), theta0=np.zeros(n))
            blocks = [DataBlock(phi=root.T, y=rng.normal(size=n))]
            theta, ref, a, rhs = self._both(hyper, blocks)
            assert _max_rel(theta, ref) <= 10 * n * cond * eps
            scale = np.linalg.norm(a, 2) * np.linalg.norm(theta)
            assert np.linalg.norm(a @ theta - rhs) <= 10 * n * eps * scale

    def test_numerically_singular_matrix_is_numerics_error(self):
        # 1 + 1e-300 == 1: the normal matrix is [[1, 1], [1, 1]] in floating point.
        hyper = Hyperparams(gamma=[1e-300, 1e-300], theta0=[0.0, 0.0])
        with pytest.raises(NumericsError, match="not positive definite"):
            solve_direct(hyper, [DataBlock(phi=[[1.0, 1.0]], y=[1.0])])

    def test_overflowing_normal_matrix_is_numerics_error(self):
        hyper = Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0])
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="not finite"):
            solve_direct(hyper, [DataBlock(phi=[[1e200, 0.0]], y=[1.0])])
