import math

import numpy as np
import pytest

from ricreg import Hyperparams, solve_direct
from ricreg.bases import feature_row, get_basis
from ricreg.problems import (
    KO_INITIAL,
    gen_ko,
    gen_reaction_diffusion,
    gen_sin10x,
    ko_rhs,
    relative_l1,
    relative_l2,
    simulate_quadratic_system,
)
from ricreg.rng import Xoshiro256pp


class TestRngStream:
    def test_deterministic_raw_stream(self):
        a = Xoshiro256pp(12345)
        b = Xoshiro256pp(12345)
        assert [a.next_raw() for _ in range(8)] == [b.next_raw() for _ in range(8)]

    def test_seeds_decorrelate(self):
        assert Xoshiro256pp(1).next_raw() != Xoshiro256pp(2).next_raw()

    def test_uniform_range(self):
        rng = Xoshiro256pp(9)
        us = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in us)
        assert 0.4 < float(np.mean(us)) < 0.6

    def test_gaussian_moments(self):
        rng = Xoshiro256pp(10)
        gs = np.array([rng.gaussian() for _ in range(20000)])
        assert abs(gs.mean()) < 0.03
        assert abs(gs.std() - 1.0) < 0.03

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            Xoshiro256pp(-1)


class TestGenSin10x:
    def test_same_seed_is_bit_identical(self):
        a = gen_sin10x(50, seed=4, noise_scale=1.0)
        b = gen_sin10x(50, seed=4, noise_scale=1.0)
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.phi, bb.phi)
            assert np.array_equal(ba.y, bb.y)

    def test_noiseless_targets_on_curve(self):
        prob = gen_sin10x(40, seed=1, noise_scale=0.0)
        for blk in prob.blocks:
            x = blk.phi[0, 1]  # second basis element is the identity map
            assert blk.y[0] == pytest.approx(math.sin(10 * x), abs=1e-15)
            assert blk.lam == 1.0

    def test_block_shape_and_grid(self):
        prob = gen_sin10x(3, seed=0)
        assert all(b.phi.shape == (1, 10) for b in prob.blocks)
        assert prob.eval_grid.shape == (1001,)
        assert prob.eval_grid[0] == 0.0 and prob.eval_grid[-1] == 10.0

    def test_coefficients_approach_truth_with_more_data(self):
        hyper = Hyperparams(gamma=np.full(10, 100.0), theta0=np.zeros(10))
        gaps = []
        for count in (300, 3000):
            prob = gen_sin10x(count, seed=2, noise_scale=1.0)
            theta = solve_direct(hyper, prob.blocks).theta_star
            others = np.delete(np.abs(theta), 8)
            gaps.append((abs(theta[8] - 1.0), others.max()))
        assert gaps[1][0] < gaps[0][0]
        assert gaps[1][1] < gaps[0][1]


class TestGenReactionDiffusion:
    def test_source_term_values(self):
        prob = gen_reaction_diffusion(0, seed=0)
        f = prob.truth["f"]
        assert f(0.0) == pytest.approx(0.0, abs=1e-15)
        expected_quarter = -0.03 * (2 * math.pi) ** 2 - 1.0
        assert f(0.25) == pytest.approx(expected_quarter, abs=1e-12)
        assert f(0.25) == pytest.approx(-2.1843525281307224, abs=1e-12)

    def test_boundary_blocks_are_noiseless_and_weighted(self):
        prob = gen_reaction_diffusion(5, seed=3, noise_scale=0.5, lambda_b=7.0)
        assert len(prob.blocks) == 7
        for blk in prob.blocks[-2:]:
            assert blk.lam == 7.0
            assert blk.y[0] == 0.0
        # boundary rows evaluate the solution, not the residual operator
        row0 = prob.blocks[-2].phi[0]
        assert row0[0] == 1.0

    def test_residual_targets_without_noise(self):
        prob = gen_reaction_diffusion(30, seed=8, noise_scale=0.0)
        f = prob.truth["f"]
        # Solve for the sample location from the constant residual entry is
        # not possible; instead regenerate and compare streams directly.
        again = gen_reaction_diffusion(30, seed=8, noise_scale=0.0)
        for a, b in zip(prob.blocks, again.blocks):
            assert np.array_equal(a.y, b.y)
        assert prob.eval_grid.shape == (257,)

    def test_truth_solution_shape(self):
        prob = gen_reaction_diffusion(0, seed=0)
        u = prob.truth["u"](prob.eval_grid)
        assert u[0] == pytest.approx(0.0, abs=1e-12)
        assert u[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.max(u) <= 1.0 + 1e-12


class TestGenKo:
    def test_rhs_at_initial_point(self):
        np.testing.assert_allclose(ko_rhs(KO_INITIAL), [0.4, 0.5, -1.6], atol=1e-15)

    def test_invariant_conserved_along_trajectory(self):
        ko = gen_ko(grid_count=10, solver_h=1e-3, fd_h=1e-2)
        c = ko.states[:, 0] ** 2 - ko.states[:, 1] ** 2
        assert np.max(np.abs(c - c[0])) <= 1e-6

    def test_central_difference_accuracy(self):
        ko = gen_ko(grid_count=200, solver_h=1e-4, fd_h=1e-3)
        offset = round(ko.fd_h / ko.solver_h)
        nsteps = len(ko.times) - 1
        idx = np.round(np.linspace(offset, nsteps - offset, 200)).astype(int)
        worst = 0.0
        for k, j in enumerate(idx):
            truth = ko_rhs(ko.states[j])
            for i in range(3):
                worst = max(worst, abs(ko.equations[i][k].y[0] - truth[i]))
        assert worst <= 1e-4

    def test_generator_is_fourth_order(self):
        fine = gen_ko(grid_count=2, solver_h=2.5e-4, fd_h=1e-3).states[-1]
        err_h = np.abs(gen_ko(grid_count=2, solver_h=1e-3, fd_h=2e-3).states[-1] - fine).max()
        err_h2 = np.abs(gen_ko(grid_count=2, solver_h=5e-4, fd_h=2e-3).states[-1] - fine).max()
        assert err_h / err_h2 >= 8.0

    def test_trajectory_comes_from_the_kernel_module(self, monkeypatch):
        from ricreg import _kernels

        calls = []
        real = _kernels.integrate_ko

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(_kernels, "integrate_ko", spy)
        ko = gen_ko(grid_count=10, solver_h=1e-3, fd_h=1e-2)
        assert len(calls) == 1
        (args, kwargs), = calls
        assert len(args) == 3 and not kwargs
        assert np.array_equal(args[0], KO_INITIAL) and args[1:] == (1e-3, 10_000)
        assert np.array_equal(ko.states, real(KO_INITIAL, 1e-3, 10_000))

    def test_stencil_must_fit(self):
        with pytest.raises(ValueError, match="multiple"):
            gen_ko(grid_count=10, solver_h=1e-3, fd_h=2.5e-4)
        with pytest.raises(ValueError, match="stencil"):
            gen_ko(grid_count=10, solver_h=1e-1, fd_h=6.0)

    def test_three_equations_share_features(self):
        ko = gen_ko(grid_count=30, solver_h=1e-3, fd_h=1e-2)
        assert len(ko.equations) == 3
        for k in range(30):
            assert np.array_equal(ko.equations[0][k].phi, ko.equations[1][k].phi)
            assert np.array_equal(ko.equations[0][k].phi, ko.equations[2][k].phi)
        assert ko.eval_grid.shape == (10001,)

    def test_replay_of_true_coefficients_tracks_reference(self):
        ko = gen_ko(grid_count=10, solver_h=1e-3, fd_h=1e-2)
        truth = np.zeros((3, 10))
        truth[0, 8] = 1.0   # x2 x3
        truth[1, 9] = 1.0   # x1 x3
        truth[2, 7] = -2.0  # x1 x2
        times, sim = simulate_quadratic_system(truth, KO_INITIAL, 10.0, 1e-3)
        ref = ko.trajectory_on(times)
        for i in range(3):
            assert relative_l2(sim[:, i], ref[:, i]) < 1e-5

    def test_replay_right_hand_side_is_the_basis_expansion(self):
        # Reference: the array RK4 step with rhs(x) = coeffs @ feature_row(x).
        # The replay sums the same terms in another order, so the two agree
        # to rounding.
        coeffs = np.random.default_rng(11).normal(size=(3, 10))
        basis = get_basis("quad-monomial-3d")
        h = 1e-3
        x = np.array([0.3, -0.2, 0.5])
        expected = [x]
        for _ in range(50):
            k1 = coeffs @ feature_row(basis, x)
            k2 = coeffs @ feature_row(basis, x + 0.5 * h * k1)
            k3 = coeffs @ feature_row(basis, x + 0.5 * h * k2)
            k4 = coeffs @ feature_row(basis, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            expected.append(x)
        times, sim = simulate_quadratic_system(coeffs, expected[0], 50 * h, h)
        np.testing.assert_array_equal(times, np.arange(51) * h)
        np.testing.assert_allclose(sim, np.array(expected), rtol=1e-13, atol=1e-15)


class TestMetrics:
    def test_relative_l2_examples(self):
        ref = np.array([3.0, 4.0])
        assert relative_l2(ref, ref) == 0.0
        assert relative_l2(2 * ref, ref) == pytest.approx(1.0, abs=1e-15)
        assert relative_l2(ref + np.array([5.0, 0.0]), ref) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_relative_l1_examples(self):
        assert relative_l1([1.0, 1.0], [1.0, 1.0]) == 0.0
        assert relative_l1([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
        b = np.array([2.0, -3.0, 1.5])
        a = b + 1e-7 * np.array([1.0, -1.0, 1.0])
        assert relative_l1(a, b) == pytest.approx(3e-7 / 6.5, rel=1e-9)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            relative_l2([1.0], [0.0])
        with pytest.raises(ValueError, match="zero"):
            relative_l1([1.0], [0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            relative_l2([1.0, 2.0], [1.0])
