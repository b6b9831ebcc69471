import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.optimize import minimize_scalar

from ricreg import (
    DataBlock,
    Hyperparams,
    IntegrationConfig,
    PdhgConfig,
    ProxSpec,
    RiccatiState,
    extract_solution,
    fit,
    pdhg_solve,
    prox_dual,
    solve_direct,
)
from ricreg.pdhg import inner_hyperparams, regularizer_value, sparsity_pattern
from ricreg.problems import relative_l1

CFG = IntegrationConfig(step_h=1e-4)


def loss_gradient(theta, blocks):
    grad = np.zeros_like(theta)
    for blk in blocks:
        grad = grad + blk.lam * blk.phi.T @ (blk.phi @ theta - blk.y)
    return grad


def rand_lasso(rng):
    n = int(rng.integers(2, 8))
    blocks = [
        DataBlock(phi=rng.normal(size=(1, n)), y=rng.normal(size=1))
        for _ in range(int(rng.integers(1, 6)))
    ]
    weights = rng.uniform(0.05, 0.5, size=n)
    return n, blocks, ProxSpec(kind="weighted_l1", weights=weights)


def _plain_prox(spec, cfg):
    # prox_dual in plain array operations.
    def prox(v):
        if spec.kind == "weighted_l1":
            return np.clip(v, -spec.weights, spec.weights)
        return v * spec.weights / (spec.weights + cfg.sigma_w)

    return prox


def _textbook_steps(n, spec, cfg, p, q):
    # The iteration as first written: theta_1, theta_2, ... with the primal
    # step in the form P ((theta - sigma_theta (w - x)) / sigma_theta) + q.
    prox = _plain_prox(spec, cfg)
    x = cfg.x_point if cfg.x_point is not None else np.zeros(n)
    theta = np.zeros(n)
    w = np.zeros(n)
    while True:
        bias = theta - cfg.sigma_theta * (w - x)
        theta_new = p @ (bias / cfg.sigma_theta) + q
        theta_bar = 2.0 * theta_new - theta
        w = prox(w + cfg.sigma_w * theta_bar)
        theta = theta_new
        yield theta


def _reference_steps(n, spec, cfg, p, q):
    # The same iteration one plain step at a time in the arithmetic of
    # pdhg._iterate: three row combinations through `@`, then the prox.
    prox = _plain_prox(spec, cfg)
    mat = np.column_stack([p, q if cfg.x_point is None else q + p @ cfg.x_point])
    to_y = np.array([1.0 / cfg.sigma_theta, -1.0])
    to_w = np.array([-cfg.sigma_w, 1.0, 2.0 * cfg.sigma_w])
    theta = np.zeros(n)
    w = np.zeros(n)
    while True:
        y = np.append(to_y @ np.stack([theta, w]), 1.0)
        theta_new = mat @ y
        w = prox(to_w @ np.stack([theta, w, theta_new]))
        theta = theta_new
        yield theta


def _run_steps(steps, n, cfg):
    # Checks every step: stop at the first residual <= tol, else return the
    # lowest-residual iterate after max_iters steps.
    theta = np.zeros(n)
    best_theta, best_residual = theta, math.inf
    residuals = []
    converged = False
    for iterations, theta_new in zip(range(1, cfg.max_iters + 1), steps):
        residual = float(np.max(np.abs(theta_new - theta))) if n else 0.0
        theta = theta_new
        residuals.append(residual)
        if residual < best_residual:
            best_theta, best_residual = theta, residual
        if residual <= cfg.tol:
            converged = True
            break
    if not converged:
        theta = best_theta
    return theta, iterations, np.asarray(residuals)


def _reference_iterations(n, spec, cfg, p, q):
    # pdhg_solve must reproduce this bit for bit.
    return _run_steps(_reference_steps(n, spec, cfg, p, q), n, cfg)


class TestProxDual:
    def test_box_clamp(self):
        spec = ProxSpec(kind="weighted_l1", weights=[0.1, 0.1, 0.1])
        out = prox_dual(spec, [0.5, -2.0, 0.05], 0.5)
        np.testing.assert_array_equal(out, [0.1, -0.1, 0.05])

    def test_interior_points_unchanged(self):
        spec = ProxSpec(kind="weighted_l1", weights=[0.3, 0.2])
        v = np.array([0.25, -0.15])
        np.testing.assert_array_equal(prox_dual(spec, v, 2.0), v)

    def test_box_clamp_equals_clip_on_nan_and_signed_zero(self):
        spec = ProxSpec(kind="weighted_l1", weights=[0.1, 0.2, 0.3, 0.4, 0.5])
        v = np.array([np.nan, -0.0, 0.0, -np.inf, 0.4])
        out = prox_dual(spec, v, 0.5)
        ref = np.clip(v, -spec.weights, spec.weights)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))

    def test_quadratic_prox_closed_form(self):
        spec = ProxSpec(kind="weighted_l2_squared", weights=[2.0, 0.5])
        v = np.array([1.0, -3.0])
        sigma = 0.7
        np.testing.assert_allclose(
            prox_dual(spec, v, sigma), v * spec.weights / (spec.weights + sigma)
        )

    def test_quadratic_prox_against_numeric_minimizer(self):
        spec = ProxSpec(kind="weighted_l2_squared", weights=[1.7])
        sigma = 0.4
        for v in (-2.0, 0.3, 5.0):
            expected = minimize_scalar(
                lambda w: w * w / (2 * 1.7) + (w - v) ** 2 / (2 * sigma),
                bounds=(-10, 10),
                method="bounded",
                options={"xatol": 1e-12},
            ).x
            assert prox_dual(spec, [v], sigma)[0] == pytest.approx(expected, abs=1e-8)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ProxSpec(kind="huber", weights=[1.0])
        with pytest.raises(ValueError, match="positive"):
            ProxSpec(kind="weighted_l1", weights=[0.0])


class TestPdhgSolve:
    def test_scalar_soft_threshold(self):
        blk = DataBlock(phi=[[1.0]], y=[1.0])
        spec = ProxSpec(kind="weighted_l1", weights=[0.1])
        res = pdhg_solve(1, [blk], spec, PdhgConfig(), CFG)
        assert res.converged
        assert res.solution.theta_star[0] == pytest.approx(0.9, abs=1e-6)

    def test_dominating_weight_kills_coefficient(self):
        blk = DataBlock(phi=[[1.0]], y=[1.0])
        spec = ProxSpec(kind="weighted_l1", weights=[10.0])
        res = pdhg_solve(1, [blk], spec, PdhgConfig(), CFG)
        assert sparsity_pattern(res.solution.theta_star)[0] == 0.0

    def test_step_size_condition_rejected_up_front(self):
        with pytest.raises(ValueError, match="sigma"):
            PdhgConfig(sigma_theta=2.0, sigma_w=0.5)

    @pytest.mark.parametrize("sigma_theta, sigma_w", [
        (float("nan"), 0.5), (0.5, float("nan")), (float("inf"), 0.5), (0.5, float("inf")),
        (float("-inf"), 0.5), (0.0, 0.5),
    ])
    def test_step_sizes_must_be_positive_and_finite(self, sigma_theta, sigma_w):
        # A NaN step size makes every product test false.
        with pytest.raises(ValueError, match="step sizes must be positive and finite"):
            PdhgConfig(sigma_theta=sigma_theta, sigma_w=sigma_w)

    @pytest.mark.parametrize("sigma_theta, sigma_w", [("0.5", 0.5), (0.5, "0.5"), (None, 0.5)])
    def test_step_sizes_must_be_real_numbers(self, sigma_theta, sigma_w):
        with pytest.raises(ValueError, match="step sizes must be real numbers"):
            PdhgConfig(sigma_theta=sigma_theta, sigma_w=sigma_w)

    def test_step_sizes_stored_as_python_floats(self):
        cfg = PdhgConfig(sigma_theta=np.float32(0.25), sigma_w=np.float32(1.5))
        assert type(cfg.sigma_theta) is float and cfg.sigma_theta == 0.25
        assert type(cfg.sigma_w) is float and cfg.sigma_w == 1.5

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, "10", None, 0, -1])
    def test_max_iters_must_be_a_positive_integer(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            PdhgConfig(max_iters=max_iters)

    def test_quadratic_regularizer_matches_ridge_oracle(self):
        # With R quadratic and a linear term the minimizer solves
        # (sum lam phi'phi + diag(w)) theta = sum lam phi'y + x.
        rng = np.random.default_rng(3)
        n = 4
        blocks = [
            DataBlock(phi=rng.normal(size=(2, n)), y=rng.normal(size=2))
            for _ in range(3)
        ]
        weights = rng.uniform(0.5, 2.0, size=n)
        x_point = rng.normal(size=n)
        spec = ProxSpec(kind="weighted_l2_squared", weights=weights)
        res = pdhg_solve(
            n, blocks, spec, PdhgConfig(x_point=x_point, tol=1e-12), CFG
        )
        a = np.diag(weights) + sum(b.lam * b.phi.T @ b.phi for b in blocks)
        rhs = x_point + sum(b.lam * b.phi.T @ b.y for b in blocks)
        expected = np.linalg.solve(a, rhs)
        assert relative_l1(res.solution.theta_star, expected) < 1e-8

    def test_primal_step_equals_fresh_ridge_solve(self):
        # Iterates reuse one flow state; a from-scratch fit with the same
        # weights and the iterate's bias must give the same primal step.
        rng = np.random.default_rng(4)
        n, blocks, spec = rand_lasso(rng)
        cfg = PdhgConfig(max_iters=2)
        res = pdhg_solve(n, blocks, spec, cfg, CFG)
        hyper = inner_hyperparams(n, cfg.sigma_theta)
        # Reconstruct iterate 2's bias from iterate 1.
        state1 = fit(hyper, blocks, CFG)
        theta1 = extract_solution(state1, hyper).theta_star  # zero bias
        theta_bar1 = 2 * theta1  # theta0 = 0
        w1 = prox_dual(spec, cfg.sigma_w * theta_bar1, cfg.sigma_w)
        bias = theta1 - cfg.sigma_theta * w1
        fresh = fit(hyper, blocks, CFG)
        theta2 = extract_solution(fresh, hyper.with_theta0(bias)).theta_star
        assert np.max(np.abs(res.solution.theta_star - theta2)) < 1e-10

    def test_nonconvergence_returns_flagged_best_iterate(self):
        blk = DataBlock(phi=[[1.0]], y=[1.0])
        spec = ProxSpec(kind="weighted_l1", weights=[0.1])
        res = pdhg_solve(1, [blk], spec, PdhgConfig(max_iters=3), CFG)
        assert not res.converged
        assert res.iterations == 3
        assert np.isfinite(res.residual)

    def test_solution_diagnostics_split(self):
        blk = DataBlock(phi=[[1.0]], y=[1.0])
        spec = ProxSpec(kind="weighted_l1", weights=[0.1])
        res = pdhg_solve(1, [blk], spec, PdhgConfig(), CFG)
        sol = res.solution
        assert sol.reg_value == pytest.approx(
            regularizer_value(spec, sol.theta_star), abs=1e-15
        )
        assert sol.total_loss == pytest.approx(sol.data_fit + sol.reg_value, abs=1e-15)

    def test_inner_state_reuse_changes_nothing(self):
        rng = np.random.default_rng(5)
        n, blocks, spec = rand_lasso(rng)
        first = pdhg_solve(n, blocks, spec, PdhgConfig(), CFG)
        again = pdhg_solve(
            n, blocks, spec, PdhgConfig(), CFG, inner_state=first.inner_state
        )
        np.testing.assert_array_equal(
            first.solution.theta_star, again.solution.theta_star
        )


class TestPdhgMatchesReferenceIterations:
    @staticmethod
    def _check(n, blocks, spec, cfg, riccati_cfg, inner_state=None):
        res = pdhg_solve(n, blocks, spec, cfg, riccati_cfg, inner_state)
        p, q = res.inner_state.p, res.inner_state.q
        theta, iterations, history = _reference_iterations(n, spec, cfg, p, q)
        assert res.iterations == iterations
        for got, want in ((res.solution.theta_star, theta), (res.residual_history, history)):
            # Bit for bit: NaN equals NaN, and -0.0 differs from 0.0.
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        finite = history[~np.isnan(history)]
        assert res.residual == (history[-1] if res.converged else np.min(finite, initial=math.inf))
        return res

    def test_ko_equation(self):
        from ricreg.problems import gen_ko

        ko = gen_ko(grid_count=300, solver_h=1e-3, fd_h=1e-2)
        spec = ProxSpec(kind="weighted_l1", weights=np.full(10, 0.1))
        self._check(10, ko.equations[2], spec, PdhgConfig(), IntegrationConfig(step_h=1e-2))

    def test_weighted_l2_squared(self):
        rng = np.random.default_rng(6)
        n = 5
        blocks = [DataBlock(phi=rng.normal(size=(2, n)), y=rng.normal(size=2)) for _ in range(4)]
        spec = ProxSpec(kind="weighted_l2_squared", weights=rng.uniform(0.5, 2.0, size=n))
        cfg = PdhgConfig(x_point=rng.normal(size=n), tol=1e-12)
        self._check(n, blocks, spec, cfg, CFG)

    def test_nonconvergence_returns_reference_best_iterate(self):
        rng = np.random.default_rng(7)
        n, blocks, spec = rand_lasso(rng)
        self._check(n, blocks, spec, PdhgConfig(max_iters=25), CFG)

    # Step counts around the end of the first chunk (16 steps) and of the
    # buffer (256 steps); the instance converges after 340 iterations, inside
    # a chunk that runs to 378.
    @pytest.mark.parametrize("max_iters", [1, 2, 15, 16, 17, 255, 256, 257, 100000])
    @pytest.mark.parametrize("with_x", [False, True])
    def test_chunk_edges(self, max_iters, with_x):
        rng = np.random.default_rng(7)
        n, blocks, spec = rand_lasso(rng)
        x_point = np.linspace(-0.05, 0.05, n) if with_x else None
        res = self._check(
            n, blocks, spec, PdhgConfig(max_iters=max_iters, x_point=x_point), CFG
        )
        assert res.converged == (max_iters == 100000)

    def test_converges_just_past_the_buffer_length(self):
        rng = np.random.default_rng(8)
        n, blocks, spec = rand_lasso(rng)
        res = self._check(n, blocks, spec, PdhgConfig(), CFG)
        assert res.converged and 257 < res.iterations < 300

    def test_converges_on_the_first_iteration(self):
        # Zero targets give q = 0, so the first primal step is exactly zero.
        blocks = [DataBlock(phi=[[1.0, 2.0, -1.0]], y=[0.0])]
        spec = ProxSpec(kind="weighted_l1", weights=[0.1, 0.2, 0.3])
        res = self._check(3, blocks, spec, PdhgConfig(), CFG)
        assert res.converged and res.iterations == 1 and res.residual == 0.0

    def test_empty_problem_converges_on_the_first_iteration(self):
        # n = 0: no weights, a 0 x 0 inner state and a 0 x 1 primal map.
        inner = RiccatiState(p=np.zeros((0, 0)), q=np.zeros(0), r=None)
        spec = ProxSpec(kind="weighted_l1", weights=np.zeros(0))
        res = self._check(0, [], spec, PdhgConfig(), CFG, inner)
        assert res.converged and res.iterations == 1 and res.residual == 0.0
        assert res.solution.theta_star.shape == (0,)

    def test_best_iterate_in_an_earlier_chunk(self):
        # With P = 2 I the primal step doubles the bias: the iteration
        # diverges, so the best iterate is the first one and lies many chunks
        # before the last.
        inner = RiccatiState(p=2.0 * np.eye(3), q=np.array([1.0, -0.5, 0.25]), r=None)
        spec = ProxSpec(kind="weighted_l1", weights=[0.1, 0.2, 0.3])
        res = self._check(3, [], spec, PdhgConfig(max_iters=150), CFG, inner)
        assert not res.converged
        assert res.residual == res.residual_history[0] < res.residual_history[-1]

    @pytest.mark.parametrize("kind", ["weighted_l1", "weighted_l2_squared"])
    @pytest.mark.parametrize("scale", [50.0, 1e30])
    def test_nan_residuals_never_become_best(self, kind, scale):
        # With P = scale I the iterates overflow to inf and then NaN: after
        # about 150 iterations at 50, within the first chunk at 1e30.
        inner = RiccatiState(p=scale * np.eye(3), q=np.ones(3), r=None)
        spec = ProxSpec(kind=kind, weights=[0.1, 0.2, 0.3])
        with np.errstate(over="ignore", invalid="ignore"):
            res = self._check(3, [], spec, PdhgConfig(max_iters=300), CFG, inner)
        assert np.isnan(res.residual_history).any()
        assert res.residual == res.residual_history[0]


class TestTextbookDeviation:
    """The row-combination arithmetic rounds differently from the textbook
    primal step; after the same number of steps the two stay within
    1e-12 max(1, |theta|_inf) of each other."""

    @staticmethod
    def _check(n, blocks, spec, cfg, riccati_cfg):
        res = pdhg_solve(n, blocks, spec, cfg, riccati_cfg)
        assert res.converged
        p, q = res.inner_state.p, res.inner_state.q
        steps = itertools.islice(_textbook_steps(n, spec, cfg, p, q), res.iterations - 1, None)
        textbook = next(steps)
        deviation = np.max(np.abs(res.solution.theta_star - textbook))
        assert deviation <= 1e-12 * max(1.0, np.max(np.abs(textbook)))

    def test_ko_equation(self):
        from ricreg.problems import gen_ko

        ko = gen_ko(grid_count=300, solver_h=1e-3, fd_h=1e-2)
        spec = ProxSpec(kind="weighted_l1", weights=np.full(10, 0.1))
        self._check(10, ko.equations[2], spec, PdhgConfig(), IntegrationConfig(step_h=1e-2))

    @pytest.mark.parametrize("kind", ["weighted_l1", "weighted_l2_squared"])
    @pytest.mark.parametrize("with_x", [False, True])
    def test_random_instances(self, kind, with_x):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n, blocks, l1 = rand_lasso(rng)
            spec = ProxSpec(kind=kind, weights=l1.weights)
            # |x_k| < weight_k keeps the l1 problem bounded below.
            x_point = rng.uniform(-0.9, 0.9, size=n) * spec.weights if with_x else None
            self._check(n, blocks, spec, PdhgConfig(x_point=x_point), CFG)


@settings(max_examples=40, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    kind=hst.sampled_from(["weighted_l1", "weighted_l2_squared"]),
    with_x=hst.booleans(),
    max_iters=hst.integers(1, 600),
)
def test_random_instances_match_reference_and_stationarity(seed, kind, with_x, max_iters):
    rng = np.random.default_rng(seed)
    n, blocks, _ = rand_lasso(rng)
    spec = ProxSpec(kind=kind, weights=rng.uniform(0.05, 0.5, size=n))
    x_point = rng.normal(scale=0.1, size=n) if with_x else None
    sigma_theta = float(rng.uniform(0.2, 1.0))
    sigma_w = float(rng.uniform(0.1, 0.9)) / sigma_theta
    tol = 1e-10
    cfg = PdhgConfig(
        sigma_theta=sigma_theta, sigma_w=sigma_w, max_iters=max_iters, tol=tol, x_point=x_point
    )
    res = TestPdhgMatchesReferenceIterations._check(n, blocks, spec, cfg, CFG)
    if res.converged and kind == "weighted_l1":
        # The primal step gives grad data(theta) - x = -w - (theta - theta_prev)
        # / sigma_theta with |w| <= weights, so the gradient exceeds the
        # weights by at most tol / sigma_theta <= 5 tol, plus the flow's error.
        x = np.zeros(n) if x_point is None else x_point
        g = loss_gradient(res.solution.theta_star, blocks) - x
        assert np.all(np.abs(g) <= spec.weights + 10 * tol)


class TestPdhgOptimality:
    def test_subgradient_condition_at_termination(self):
        rng = np.random.default_rng(42)
        tol = 1e-10
        for _ in range(20):
            n, blocks, spec = rand_lasso(rng)
            res = pdhg_solve(n, blocks, spec, PdhgConfig(tol=tol), CFG)
            assert res.converged
            g = loss_gradient(res.solution.theta_star, blocks)
            assert np.all(np.abs(g) <= spec.weights + 10 * tol)

    def test_active_coordinates_sit_on_weight_boundary(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n, blocks, spec = rand_lasso(rng)
            res = pdhg_solve(n, blocks, spec, PdhgConfig(tol=1e-10), CFG)
            theta = res.solution.theta_star
            g = loss_gradient(theta, blocks)
            active = np.abs(theta) > 1e-8
            if np.any(active):
                defect = np.abs(
                    g[active] + spec.weights[active] * np.sign(theta[active])
                )
                assert np.max(defect) < 1e-6

    def test_smoothed_residual_trend_decreases(self):
        blk = DataBlock(phi=[[1.0]], y=[1.0])
        spec = ProxSpec(kind="weighted_l1", weights=[0.1])
        res = pdhg_solve(1, [blk], spec, PdhgConfig(), CFG)
        window = np.convolve(res.residual_history, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(window) <= 0)

    def test_smoothed_residual_trend_on_dynamics_instance(self):
        # The dual transient produces a few sub-4% upticks in the first ~50
        # iterations; past that the smoothed residual decays monotonically
        # over >10k iterations.
        from ricreg.problems import gen_ko

        ko = gen_ko(grid_count=300, solver_h=1e-3, fd_h=1e-2)
        spec = ProxSpec(kind="weighted_l1", weights=np.full(10, 0.1))
        res = pdhg_solve(
            10, ko.equations[0], spec, PdhgConfig(), IntegrationConfig(step_h=1e-2)
        )
        window = np.convolve(res.residual_history, np.ones(10) / 10, mode="valid")
        assert np.all(window[1:] <= 1.05 * window[:-1])
        assert np.all(np.diff(window[50:]) <= 0)
        assert window[-1] < 1e-6 * window[0]
