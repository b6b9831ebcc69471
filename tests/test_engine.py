import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from ricreg import (
    DataBlock,
    Hyperparams,
    IntegrationConfig,
    NumericsError,
    ParetoTrace,
    RiccatiState,
    add_block,
    extract_solution,
    fit,
    loss_from_state,
    new_state,
    remove_block,
    rls_add,
    rls_fit,
    rls_remove,
    shift_bias,
    solve_direct,
    tune_gamma,
    tune_lambda,
)
from ricreg import _kernels, engine
from ricreg.pdhg import PdhgConfig, ProxSpec, pdhg_solve
from ricreg.problems import gen_sin10x, relative_l1, relative_l2
from ricreg.bases import feature_matrix, get_basis
from test_kernels import _rk4_diag_numpy


def closed_form(hyper, blocks):
    """Independent reference: p = (Gamma + sum lam phi'phi)^-1, q = p sum lam phi'y."""
    a = np.diag(hyper.gamma).astype(float)
    rhs = np.zeros(hyper.n)
    for b in blocks:
        a += b.lam * b.phi.T @ b.phi
        rhs += b.lam * b.phi.T @ b.y
    p = np.linalg.inv(a)
    return p, p @ rhs


def rand_problem(rng, n=5, n_blocks=6, m=1, lam=1.0):
    hyper = Hyperparams(gamma=rng.uniform(0.5, 2.0, n), theta0=rng.normal(size=n))
    blocks = [
        DataBlock(phi=rng.normal(size=(m, n)), y=rng.normal(size=m), lam=lam)
        for _ in range(n_blocks)
    ]
    return hyper, blocks


CFG = IntegrationConfig(step_h=1e-3)


def run_for(state, block, duration, cfg, backward=False):
    """``block``'s flow for ``duration`` from ``state``, backward in time if
    ``backward``: ``tune_lambda`` between the weights 0 and ``duration``."""
    if backward:
        return tune_lambda(state, block, duration, 0.0, cfg)
    return tune_lambda(state, block, 0.0, duration, cfg)


def untracked(state):
    """``state`` without the loss accumulator r."""
    return RiccatiState(p=state.p, q=state.q, r=None, elapsed=state.elapsed)


class TestRk4Step:
    def test_zero_features_leave_p_q_unchanged(self):
        hyper = Hyperparams(gamma=[2.0, 0.5], theta0=[1.0, -1.0])
        st = new_state(hyper)
        blk = DataBlock(phi=[[0.0, 0.0]], y=[3.0])
        out = run_for(st, blk, 0.25, IntegrationConfig(step_h=0.25))
        np.testing.assert_array_equal(out.p, st.p)
        np.testing.assert_array_equal(out.q, st.q)
        assert out.elapsed == 0.25

    def test_zero_block_is_full_noop_besides_elapsed(self):
        hyper = Hyperparams(gamma=[2.0, 0.5], theta0=[1.0, -1.0])
        st = new_state(hyper)
        out = run_for(st, DataBlock(phi=[[0.0, 0.0]], y=[0.0]), 0.25,
                      IntegrationConfig(step_h=0.25))
        assert out.r == st.r

    def test_single_step_matches_analytic_to_h5(self):
        # p' = -p^2 from p(0)=1 has p(t) = 1/(1+t); q(t) = t/(1+t).
        st = new_state(Hyperparams(gamma=[1.0], theta0=[0.0]))
        out = run_for(st, DataBlock(phi=[[1.0]], y=[1.0]), 0.1, IntegrationConfig(step_h=0.1))
        assert abs(out.p[0, 0] - 1.0 / 1.1) < 1e-6
        assert abs(out.q[0] - 0.1 / 1.1) < 1e-6

    def test_forward_then_backward_recovers_state(self):
        rng = np.random.default_rng(5)
        hyper, blocks = rand_problem(rng, m=2)
        st = new_state(hyper)
        fwd = run_for(st, blocks[0], 1e-3, CFG)
        back = run_for(fwd, blocks[0], 1e-3, CFG, backward=True)
        assert np.max(np.abs(back.p - st.p)) < 1e-12
        assert np.max(np.abs(back.q - st.q)) < 1e-12

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError, match="h must be"):
            IntegrationConfig(step_h=-0.1)

    def test_unstable_backward_run_reports_numerical_failure(self):
        # Removing a block that was never added grows p without bound; with a
        # coarse step the backward run overflows and must be reported.
        st = new_state(Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0]))
        blk = DataBlock(phi=[[50.0, 10.0]], y=[1.0], lam=5.0)
        with pytest.raises(NumericsError, match="smaller step"):
            run_for(st, blk, 5.0, IntegrationConfig(step_h=0.05), backward=True)

    def test_blow_up_is_reported_without_runtime_warnings(self):
        # A zero feature leaves u = p phi with a zero entry; the overflowed
        # update must not surface as NumPy inf * 0 warnings on the way.
        st = new_state(Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0]))
        blk = DataBlock(phi=[[50.0, 0.0]], y=[1.0], lam=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for h, backward in ((0.05, True), (0.5, False)):
                with pytest.raises(NumericsError, match="smaller step"):
                    run_for(st, blk, 5.0, IntegrationConfig(step_h=h), backward)


    def test_overflowing_block_is_refused_without_runtime_warnings(self):
        # G = phi P phi' overflows, so its eigenvalue is not finite and no step
        # size can follow the run.
        st = new_state(Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0]))
        blk = DataBlock(phi=[[1e200, 1.0]], y=[1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericsError, match="not finite: no step size"):
                add_block(st, blk, CFG)

    def test_overflowing_multi_row_block_is_refused(self):
        # The same for two rows, whose G product NumPy reports as an overflow.
        st = new_state(Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0]))
        blk = DataBlock(phi=[[1e200, 1.0], [1.0, 2e200]], y=[1.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match="not finite: no step size"):
                add_block(st, blk, CFG)

    def test_multi_row_blow_up_is_reported_without_runtime_warnings(self):
        # Removing a 2-row block that was never added: the row-space loops
        # overflow and the whole state must be reported, without warnings.
        st = new_state(Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0]))
        blk = DataBlock(phi=[[50.0, 0.0], [10.0, 30.0]], y=[1.0, -2.0], lam=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericsError, match="smaller step"):
                run_for(st, blk, 5.0, IntegrationConfig(step_h=0.05), backward=True)


class TestIntegrationConfig:
    @pytest.mark.parametrize("step_h", ["0.1", None, [0.1], 1j])
    def test_step_h_must_be_a_real_number(self, step_h):
        with pytest.raises(ValueError, match="step_h must be a real number"):
            IntegrationConfig(step_h=step_h)

    @pytest.mark.parametrize("step_h", [np.float32(0.1), np.float64(0.1), 1, True])
    def test_step_h_is_stored_as_a_python_float(self, step_h):
        cfg = IntegrationConfig(step_h=step_h)
        assert type(cfg.step_h) is float and cfg.step_h == float(step_h)


class TestFailEarly:
    """Backward runs that RK4 cannot follow are refused before any step."""

    def test_coarse_weight_decrease_is_refused_with_a_step_that_passes(self):
        # One block phi = e1 at n = 4: the weights of the three unconstrained
        # coordinates fall 1 -> 1e-4, so P grows 10^4-fold along them over
        # the run.  Integrated at h = 0.02, past the stability limit at its
        # end, the run returns theta_2 = 0.020 against 0.5.
        hyper = Hyperparams(gamma=np.ones(4), theta0=np.full(4, 0.5))
        blocks = [DataBlock(phi=[[1.0, 0.0, 0.0, 0.0]], y=[1.0])]
        st = fit(hyper, blocks, CFG)
        new_gamma = np.full(4, 1e-4)
        trace = ParetoTrace()
        with pytest.raises(NumericsError, match="smaller step") as info:
            tune_gamma(st, hyper, new_gamma, IntegrationConfig(step_h=0.02), trace)
        assert len(trace) == 1  # only the starting point
        step = float(str(info.value).rsplit("e.g. ", 1)[1])
        st2, hyper2 = tune_gamma(st, hyper, new_gamma, IntegrationConfig(step_h=step))
        oracle = solve_direct(hyper2, blocks)
        assert relative_l1(extract_solution(st2, hyper2).theta_star, oracle.theta_star) < 1e-4

    def test_stiff_removal_is_refused_with_a_step_that_passes(self):
        # A block that was added (a T = 0.99 < 1) but is too stiff for h = 5.
        hyper = Hyperparams(gamma=[1.0], theta0=[0.0])
        blk = DataBlock(phi=[[1.0]], y=[1.0], lam=100.0)
        st = fit(hyper, [blk], CFG)
        with pytest.raises(NumericsError, match="smaller step") as info:
            remove_block(st, blk, IntegrationConfig(step_h=5.0))
        step = float(str(info.value).rsplit("e.g. ", 1)[1])
        back = remove_block(st, blk, IntegrationConfig(step_h=step))
        assert abs(back.p[0, 0] - 1.0) < 1e-4

    @pytest.mark.parametrize("lam", [0.25, 0.75])
    def test_stiff_addition_is_refused_with_a_step_that_passes(self, lam):
        # phi = 3 at P = 1 and h = 0.25: h a = 2.25 is past RK4's limit.  Run
        # through, one step (lam = 0.25) gives P = -0.625 and three give
        # P = -2e25; the exact P is 1 / (1 + 9 lam).
        st = new_state(Hyperparams(gamma=[1.0], theta0=[0.0]))
        blk = DataBlock(phi=[[3.0]], y=[1.0], lam=lam)
        with pytest.raises(NumericsError, match="too stiff for RK4") as info:
            add_block(st, blk, IntegrationConfig(step_h=0.25))
        # The named step (h a = 0.87) passes, within 1% of the exact P.
        step = float(str(info.value).rsplit("e.g. ", 1)[1])
        added = add_block(st, blk, IntegrationConfig(step_h=step))
        exact = 1.0 / (1.0 + 9.0 * lam)
        assert abs(added.p[0, 0] - exact) < 1e-2 * exact

    def test_never_added_block_is_refused_before_integrating(self):
        st = new_state(Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0]))
        blk = DataBlock(phi=[[1.0, 0.0]], y=[1.0], lam=2.0)  # a T = 2
        with pytest.raises(NumericsError, match="never added"):
            remove_block(st, blk, IntegrationConfig(step_h=1e-6))

    def test_failed_sweep_appends_no_non_finite_record(self):
        rng = np.random.default_rng(38)
        hyper, blocks = rand_problem(rng, n=4)
        st = fit(hyper, blocks, CFG)
        # Forward: RK4 overflows at h * a of about 1e5, the state is lost.
        trace = ParetoTrace()
        with pytest.raises(NumericsError, match="smaller step"):
            tune_gamma(st, hyper, 1e6 * hyper.gamma, IntegrationConfig(step_h=0.5), trace)
        # Backward: refused before any step.
        with pytest.raises(NumericsError, match="smaller step"):
            tune_gamma(st, hyper, 1e-6 * hyper.gamma, IntegrationConfig(step_h=0.5), trace)
        assert len(trace) == 2  # the two starting points
        assert all(np.all(np.isfinite(rec.theta)) for rec in trace)

    def test_sweep_with_overflowing_evaluation_point_is_refused(self):
        # gamma * theta0 overflows in its first entry, so every point of the
        # sweep, the starting point too, is non-finite while the state is not.
        # The state does not depend on theta0, and a fit refuses this bias.
        hyper = Hyperparams(gamma=[1e300, 1.0], theta0=[1e10, 0.0])
        st = fit(hyper.with_theta0([0.0, 0.0]), [DataBlock(phi=[[1.0, 1.0]], y=[1.0])], CFG)
        trace = ParetoTrace()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match="non-finite trace point"):
                tune_gamma(st, hyper, [1e300, 2.0], IntegrationConfig(step_h=0.25), trace)
        assert len(trace) == 0


class TestIntegrateBlock:
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_one_kernel_call_matches_two(self, m):
        # The final partial step runs in the same row-space call as the full
        # steps; it matches running it as a second call from the first's end
        # (m = 8 > n = 5 also covers the residual loss rate of the QR path).
        rng = np.random.default_rng(60 + m)
        hyper, blocks = rand_problem(rng, n=5, n_blocks=1, m=m)
        blk = blocks[0]
        st = add_block(new_state(hyper), blk, CFG)
        for duration, backward, sign in ((0.7237, False, 1.0), (0.3141, True, -1.0)):
            got = run_for(st, blk, duration, CFG, backward)
            p, q = st.p.copy(), st.q.copy()
            r = _kernels.rk4_dense(p, q, st.r, blk.phi, blk.y, sign * 1e-3,
                                   int(duration / 1e-3)).r
            last = duration - int(duration / 1e-3) * 1e-3
            r = _kernels.rk4_dense(p, q, r, blk.phi, blk.y, sign * last, 1).r
            assert np.max(np.abs(got.p - p)) < 1e-13 * max(1.0, np.max(np.abs(p)))
            assert np.max(np.abs(got.q - q)) < 1e-13 * max(1.0, np.max(np.abs(q)))
            assert abs(got.r - r) < 1e-13 * max(1.0, abs(r))

    def test_zero_duration_returns_state(self):
        hyper = Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0])
        st = new_state(hyper)
        blk = DataBlock(phi=[[1.0, 1.0]], y=[1.0])
        assert run_for(st, blk, 0.0, CFG) is st

    def test_unit_time_matches_closed_form(self):
        hyper = Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0])
        st = run_for(new_state(hyper), DataBlock(phi=[[1.0, 1.0]], y=[1.0]), 1.0, CFG)
        p_exact = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        q_exact = np.array([1.0, 1.0]) / 3.0
        assert np.max(np.abs(st.p - p_exact)) < 1e-9
        assert np.max(np.abs(st.q - q_exact)) < 1e-9
        assert st.elapsed == 1.0

    def test_partial_final_step_lands_exactly(self):
        rng = np.random.default_rng(2)
        hyper, _ = rand_problem(rng)
        blk = DataBlock(phi=rng.normal(size=(1, 5)), y=rng.normal(size=1))
        duration = 0.7237
        st = run_for(new_state(hyper), blk, duration, CFG)
        assert st.elapsed == duration
        p_exact, _ = closed_form(
            hyper, [DataBlock(phi=blk.phi, y=blk.y, lam=duration)]
        )
        assert np.max(np.abs(st.p - p_exact)) < 1e-9

    def test_tracked_loss_matches_direct_evaluation(self):
        hyper = Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0])
        blk = DataBlock(phi=[[1.0, 1.0]], y=[1.0])
        st = run_for(new_state(hyper), blk, 1.0, CFG)
        direct = extract_solution(st, hyper, [blk]).total_loss
        recovered = loss_from_state(st, hyper)
        assert abs(direct - recovered) <= 1e-8 * abs(direct)


class TestFit:
    def test_empty_blocks_keep_prior(self):
        hyper = Hyperparams(gamma=[2.0, 3.0], theta0=[0.7, -0.2])
        st = fit(hyper, [], CFG)
        sol = extract_solution(st, hyper)
        np.testing.assert_allclose(sol.theta_star, hyper.theta0, atol=1e-15)

    def test_small_stream_matches_oracle(self):
        # Early draws of this stream keep the coarse step inside the RK4
        # stability region (the cubic feature makes that draw-dependent).
        prob = gen_sin10x(200, seed=0, noise_scale=1.0)
        hyper = Hyperparams(gamma=np.full(10, 100.0), theta0=np.zeros(10))
        st = fit(hyper, prob.blocks, CFG)
        oracle = solve_direct(hyper, prob.blocks)
        assert relative_l1(extract_solution(st, hyper).theta_star, oracle.theta_star) <= 1e-6

    def test_finer_step_tightens_stream_fit(self):
        prob = gen_sin10x(200, seed=0, noise_scale=1.0)
        hyper = Hyperparams(gamma=np.full(10, 100.0), theta0=np.zeros(10))
        oracle = solve_direct(hyper, prob.blocks)
        st = fit(hyper, prob.blocks, IntegrationConfig(step_h=5e-4))
        err = np.abs(extract_solution(st, hyper).theta_star - oracle.theta_star).sum()
        assert err <= 5e-9

    @pytest.mark.parametrize("method", ["riccati", "rls"])
    def test_overflowing_evaluation_point_is_refused_before_the_first_block(
        self, method, monkeypatch
    ):
        # gamma * theta0 overflows in its first entry, so every minimizer of
        # the fit is non-finite: both fits refuse before any kernel runs, and
        # without NumPy's overflow warning.  Hyperparams itself, on the query
        # path, accepts such values.
        hyper = Hyperparams(gamma=np.r_[1e300, np.ones(9)], theta0=np.r_[1e10, np.zeros(9)])
        blocks = gen_sin10x(200, seed=0, noise_scale=1.0).blocks

        def refuse(*args):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(_kernels, "rk4_dense", refuse)
        monkeypatch.setattr(_kernels, "exact_dense", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="non-finite minimizer"):
                if method == "riccati":
                    fit(hyper, blocks, IntegrationConfig(step_h=1e-4))
                else:
                    rls_fit(hyper, blocks)

    def test_block_order_commutes_within_tolerance(self):
        rng = np.random.default_rng(5)
        hyper, blocks = rand_problem(rng)
        oracle = solve_direct(hyper, blocks).theta_star
        theta_fwd = extract_solution(fit(hyper, blocks, CFG), hyper).theta_star
        theta_rev = extract_solution(fit(hyper, blocks[::-1], CFG), hyper).theta_star
        err_fwd = np.abs(theta_fwd - oracle).sum()
        err_rev = np.abs(theta_rev - oracle).sum()
        assert np.abs(theta_fwd - theta_rev).sum() <= 10 * max(err_fwd, err_rev)


class TestExtractSolution:
    def test_prior_returned_without_data(self):
        hyper = Hyperparams(gamma=[1.0, 1.0], theta0=[2.0, 3.0])
        st = new_state(hyper)
        np.testing.assert_allclose(
            extract_solution(st, hyper).theta_star, [2.0, 3.0], atol=1e-15
        )

    def test_hand_solved_two_dim_instance(self):
        hyper = Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0])
        blk = DataBlock(phi=[[1.0, 1.0]], y=[1.0])
        st = fit(hyper, [blk], CFG)
        np.testing.assert_allclose(
            extract_solution(st, hyper).theta_star, [1.0 / 3.0, 1.0 / 3.0], atol=1e-9
        )

    def test_block_diagnostics_are_consistent(self):
        rng = np.random.default_rng(9)
        hyper, blocks = rand_problem(rng)
        st = fit(hyper, blocks, CFG)
        sol = extract_solution(st, hyper, blocks)
        assert sol.data_fit >= 0 and sol.reg_value >= 0
        assert abs(sol.total_loss - (sol.data_fit + sol.reg_value)) <= 1e-12

    def test_untracked_state_has_no_loss(self):
        hyper = Hyperparams(gamma=[1.0], theta0=[0.0])
        st = add_block(untracked(new_state(hyper)), DataBlock(phi=[[1.0]], y=[1.0]), CFG)
        sol = extract_solution(st, hyper)
        assert sol.total_loss is None

    def test_quadratic_fit_finds_dominant_dynamics_term(self):
        # The plain ridge fit of the first dynamics equation concentrates on
        # the x2*x3 feature; sparsification is the l1 solver's job on top.
        from ricreg.problems import gen_ko

        ko = gen_ko(grid_count=300, solver_h=1e-3, fd_h=1e-2)
        hyper = Hyperparams(gamma=np.full(10, 0.1), theta0=np.zeros(10))
        st = fit(hyper, ko.equations[0], IntegrationConfig(step_h=1e-3))
        theta = extract_solution(st, hyper).theta_star
        assert int(np.argmax(np.abs(theta))) == 8
        assert abs(theta[8] - 1.0) < 0.1


class TestAddRemove:
    def test_zero_weight_block_is_noop(self):
        hyper = Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0])
        st = new_state(hyper)
        blk = DataBlock(phi=[[1.0, 2.0]], y=[1.0], lam=0.0)
        assert add_block(st, blk, CFG) is st

    def test_add_to_fresh_state_equals_single_block_fit(self):
        rng = np.random.default_rng(4)
        hyper, blocks = rand_problem(rng, n_blocks=1)
        via_add = add_block(new_state(hyper), blocks[0], CFG)
        via_fit = fit(hyper, blocks, CFG)
        assert np.max(np.abs(via_add.p - via_fit.p)) < 1e-12
        assert np.max(np.abs(via_add.q - via_fit.q)) < 1e-12

    def test_add_remove_roundtrip(self):
        rng = np.random.default_rng(8)
        hyper, blocks = rand_problem(rng)
        st = fit(hyper, blocks[:-1], CFG)
        theta0 = extract_solution(st, hyper).theta_star
        st2 = remove_block(add_block(st, blocks[-1], CFG), blocks[-1], CFG)
        theta1 = extract_solution(st2, hyper).theta_star
        assert np.abs(theta1 - theta0).sum() < 1e-6

    def test_removing_only_block_restores_prior(self):
        rng = np.random.default_rng(12)
        hyper, blocks = rand_problem(rng, n_blocks=1)
        st = fit(hyper, blocks, CFG)
        st2 = remove_block(st, blocks[0], CFG)
        theta = extract_solution(st2, hyper).theta_star
        assert np.abs(theta - hyper.theta0).sum() < 1e-6
        assert st2.elapsed == 0.0

    def test_removal_matches_oracle_on_survivor(self):
        rng = np.random.default_rng(15)
        hyper, blocks = rand_problem(rng, n_blocks=2)
        st = fit(hyper, blocks, CFG)
        st2 = remove_block(st, blocks[1], CFG)
        oracle = solve_direct(hyper, blocks[:1])
        err = relative_l1(extract_solution(st2, hyper).theta_star, oracle.theta_star)
        assert err < 1e-6

    def test_loss_accumulator_follows_the_state(self):
        # A state with r keeps integrating it and one without stays without;
        # p and q do not depend on which.
        rng = np.random.default_rng(17)
        hyper, blocks = rand_problem(rng, n_blocks=2)
        st = fit(hyper, blocks[:1], CFG)
        st2 = add_block(st, blocks[1], CFG)
        bare = add_block(untracked(st), blocks[1], CFG)
        reference = fit(hyper, blocks, CFG)
        assert st2.r == pytest.approx(reference.r, rel=1e-12)
        assert bare.r is None
        assert np.array_equal(bare.p, st2.p) and np.array_equal(bare.q, st2.q)

    def test_streaming_error_decreases_at_milestones(self):
        prob = gen_sin10x(5000, seed=0, noise_scale=1.0)
        hyper = Hyperparams(gamma=np.full(10, 100.0), theta0=np.zeros(10))
        basis = get_basis("poly-trig-10")
        design = feature_matrix(basis, prob.eval_grid)
        truth = prob.truth["y"](prob.eval_grid)
        state = new_state(hyper)
        errors = []
        for i, blk in enumerate(prob.blocks, start=1):
            state = add_block(state, blk, CFG)
            if i in (200, 1000, 5000):
                theta = extract_solution(state, hyper).theta_star
                errors.append(relative_l2(design @ theta, truth))
        assert errors[0] > errors[1] > errors[2]


class TestTuneLambda:
    def test_equal_weights_return_same_state(self):
        hyper = Hyperparams(gamma=[1.0], theta0=[0.0])
        st = new_state(hyper)
        blk = DataBlock(phi=[[1.0]], y=[1.0])
        assert tune_lambda(st, blk, 1.0, 1.0, CFG) is st

    def test_negative_weights_rejected(self):
        hyper = Hyperparams(gamma=[1.0], theta0=[0.0])
        with pytest.raises(ValueError):
            tune_lambda(new_state(hyper), DataBlock(phi=[[1.0]], y=[1.0]), -1.0, 1.0, CFG)

    @pytest.mark.parametrize("old, new", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0),
                                          (1.0, np.nan), (np.inf, np.inf)])
    def test_non_finite_weights_rejected(self, old, new):
        st = new_state(Hyperparams(gamma=[1.0], theta0=[0.0]))
        with pytest.raises(ValueError, match="weights must be finite and >= 0"):
            tune_lambda(st, DataBlock(phi=[[1.0]], y=[1.0]), old, new, CFG)

    def test_reweighting_matches_fresh_fit(self):
        rng = np.random.default_rng(21)
        hyper, blocks = rand_problem(rng, n_blocks=1)
        blk = blocks[0]
        st = fit(hyper, [blk], CFG)
        tuned = tune_lambda(st, blk, 1.0, 2.0, CFG)
        oracle = solve_direct(hyper, [DataBlock(phi=blk.phi, y=blk.y, lam=2.0)])
        err = relative_l1(extract_solution(tuned, hyper).theta_star, oracle.theta_star)
        assert err < 1e-8

    def test_down_weighting_matches_oracle(self):
        rng = np.random.default_rng(22)
        hyper, blocks = rand_problem(rng, n_blocks=3)
        st = fit(hyper, blocks, CFG)
        tuned = tune_lambda(st, blocks[0], 1.0, 0.25, CFG)
        reweighted = [DataBlock(phi=blocks[0].phi, y=blocks[0].y, lam=0.25)] + blocks[1:]
        oracle = solve_direct(hyper, reweighted)
        err = relative_l1(extract_solution(tuned, hyper).theta_star, oracle.theta_star)
        assert err < 1e-8


# Every operation that runs one block's flow, as (state, block) -> state.
_BLOCK_OPS = {
    "add_block": lambda st, blk: add_block(st, blk, CFG),
    "remove_block": lambda st, blk: remove_block(st, blk, CFG),
    "tune_lambda-equal": lambda st, blk: tune_lambda(st, blk, 0.5, 0.5, CFG),
    "tune_lambda-different": lambda st, blk: tune_lambda(st, blk, 1.0, 0.5, CFG),
}


class TestBlockCheck:
    """Each flow operation checks its block before it runs, even where the
    run itself would be empty."""

    @pytest.mark.parametrize("op", list(_BLOCK_OPS.values()), ids=list(_BLOCK_OPS))
    def test_bad_block_is_refused(self, op):
        st = fit(Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0]),
                 [DataBlock(phi=[[1.0, 0.5]], y=[1.0])], CFG)
        with pytest.raises(ValueError, match="model expects 2"):
            op(st, DataBlock(phi=[[1.0, 0.5, 0.25]], y=[1.0]))
        with pytest.raises(TypeError, match="expected DataBlock"):
            op(st, "notablock")


class TestTuneGamma:
    def test_unchanged_weights_noop(self):
        rng = np.random.default_rng(30)
        hyper, blocks = rand_problem(rng)
        st = fit(hyper, blocks, CFG)
        st2, hyper2 = tune_gamma(st, hyper, hyper.gamma.copy(), CFG)
        assert st2 is st
        np.testing.assert_array_equal(hyper2.gamma, hyper.gamma)

    def test_uniform_decrease_matches_oracle(self):
        rng = np.random.default_rng(31)
        hyper, blocks = rand_problem(rng, n=6)
        st = fit(hyper, blocks, CFG)
        new_gamma = 0.1 * hyper.gamma
        st2, hyper2 = tune_gamma(st, hyper, new_gamma, IntegrationConfig(step_h=1e-2))
        oracle = solve_direct(hyper2, blocks)
        err = relative_l1(extract_solution(st2, hyper2).theta_star, oracle.theta_star)
        assert err < 1e-7

    def test_mixed_direction_sweep_matches_oracle(self):
        rng = np.random.default_rng(32)
        hyper, blocks = rand_problem(rng, n=6)
        st = fit(hyper, blocks, CFG)
        new_gamma = np.where(np.arange(6) % 2 == 0, 3.0, 0.25)
        st2, hyper2 = tune_gamma(st, hyper, new_gamma, IntegrationConfig(step_h=1e-2))
        oracle = solve_direct(hyper2, blocks)
        err = relative_l1(extract_solution(st2, hyper2).theta_star, oracle.theta_star)
        assert err < 1e-7

    def test_elapsed_time_is_preserved(self):
        rng = np.random.default_rng(33)
        hyper, blocks = rand_problem(rng)
        st = fit(hyper, blocks, CFG)
        st2, _ = tune_gamma(st, hyper, 0.5 * hyper.gamma, IntegrationConfig(step_h=1e-2))
        assert st2.elapsed == st.elapsed

    def test_trace_records_labels_and_interior_solutions(self):
        rng = np.random.default_rng(34)
        hyper, blocks = rand_problem(rng, n=4)
        st = fit(hyper, blocks, CFG)
        trace = ParetoTrace()
        cfg = IntegrationConfig(step_h=1e-2)
        tune_gamma(st, hyper, 0.1 * hyper.gamma, cfg, trace)
        assert len(trace) == 101  # start plus one per step
        labels = np.array([rec.effective_hyperparam for rec in trace])
        assert np.all(np.diff(labels) < 0)
        # Interior records are exact solutions of the interpolated problem;
        # the sweep scales every weight by the same factor here, so the label
        # ratio recovers the interpolated weights.
        rec = trace.records[40]
        gamma_eff = hyper.gamma * (labels[40] / labels[0])
        oracle = solve_direct(hyper.with_gamma(gamma_eff), blocks)
        assert relative_l1(rec.theta, oracle.theta_star) < 1e-9
        assert abs(rec.data_fit - oracle.data_fit) <= 1e-9 * max(1.0, oracle.data_fit)

    @staticmethod
    def _per_step_sweep(st, hyper, new_gamma, h):
        """The traced sweep stepped one diagonal RK4 step at a time, with one
        trace point evaluated from the state after every step."""
        p, q, r = st.p.copy(), st.q.copy(), st.r
        gamma0, theta0 = hyper.gamma, hyper.theta0
        new_gamma = hyper.with_gamma(new_gamma).gamma
        d_up = np.maximum(new_gamma - gamma0, 0.0)
        d_down = np.maximum(gamma0 - new_gamma, 0.0)

        def point(gamma_eff):
            x = gamma_eff * theta0
            theta = p @ x + q
            s_value = 0.5 * float(x @ (p @ x)) + float(q @ x) + r
            total = -s_value + 0.5 * float(theta0 @ x)
            diff = theta - theta0
            reg_weighted = 0.5 * float(gamma_eff @ (diff * diff))
            return float(np.mean(gamma_eff)), theta, total - reg_weighted, 0.5 * float(diff @ diff)

        records = [point(gamma0)]
        up_end = gamma0 + d_up if np.any(d_down) else new_gamma
        phases = (
            (d_up, 1.0, lambda t: gamma0 + t * d_up, up_end),
            (d_down, -1.0, lambda t: gamma0 + d_up - t * d_down, new_gamma),
        )
        nsteps = max(1, int(np.ceil(1.0 / h - 1e-9)))
        last = 1.0 - (nsteps - 1) * h
        for d, sign, gamma_at, gamma_end in phases:
            if not np.any(d):
                continue
            t = 0.0
            for _ in range(nsteps - 1):
                r = _rk4_diag_numpy(p, q, r, d, sign * h, 1, True, True)
                t += h
                records.append(point(gamma_at(t)))
            r = _rk4_diag_numpy(p, q, r, d, sign * last, 1, True, True)
            records.append(point(gamma_end))
        return records

    @staticmethod
    def _sweep_case(kind):
        rng = np.random.default_rng(39)
        hyper, blocks = rand_problem(rng, n=6)
        st = fit(hyper, blocks, CFG)
        new_gamma = {
            "down": 0.1 * hyper.gamma,
            "up": 3.0 * hyper.gamma,
            "mixed": np.where(np.arange(6) % 2 == 0, 3.0, 0.25),
        }[kind]
        return st, hyper, new_gamma

    # h = 1e-3 spans several evaluation chunks; h = 0.03 ends each phase
    # with a partial step of 0.01.
    @pytest.mark.parametrize("h", [1e-3, 0.03])
    @pytest.mark.parametrize("kind", ["down", "up", "mixed"])
    def test_trace_matches_per_step_sweep_record_by_record(self, kind, h):
        st, hyper, new_gamma = self._sweep_case(kind)
        trace = ParetoTrace()
        tune_gamma(st, hyper, new_gamma, IntegrationConfig(step_h=h), trace)
        reference = self._per_step_sweep(st, hyper, new_gamma, h)
        assert len(trace) == len(reference)
        for rec, (label, theta, data_fit, reg_norm) in zip(trace, reference):
            assert rec.effective_hyperparam == label
            assert np.max(np.abs(rec.theta - theta)) < 1e-12 * max(1.0, np.max(np.abs(theta)))
            assert abs(rec.data_fit - data_fit) < 1e-12 * max(1.0, abs(data_fit))
            assert abs(rec.reg_norm - reg_norm) < 1e-12 * max(1.0, abs(reg_norm))

    @pytest.mark.parametrize("h", [1e-3, 0.03])
    @pytest.mark.parametrize("kind", ["down", "up", "mixed"])
    def test_traced_and_untraced_sweeps_end_in_the_same_state(self, kind, h):
        st, hyper, new_gamma = self._sweep_case(kind)
        cfg = IntegrationConfig(step_h=h)
        plain, plain_hyper = tune_gamma(st, hyper, new_gamma, cfg)
        traced, traced_hyper = tune_gamma(st, hyper, new_gamma, cfg, ParetoTrace())
        assert np.array_equal(plain.p, traced.p)
        assert np.array_equal(plain.q, traced.q)
        assert plain.r == traced.r
        assert np.array_equal(plain_hyper.gamma, traced_hyper.gamma)

    def test_chained_sweeps_join_with_identical_records(self):
        # The last point of one call and the first point of the next come
        # from the same state; with the same label they are the same record,
        # so the trace cannot step back at the join.
        rng = np.random.default_rng(37)
        hyper, blocks = rand_problem(rng, n=4)
        st = fit(hyper, blocks, CFG)
        trace = ParetoTrace()
        cfg = IntegrationConfig(step_h=1e-2)
        mid_gamma = 0.1 * hyper.gamma
        new_gamma = 0.01 * hyper.gamma
        st, hyper = tune_gamma(st, hyper, mid_gamma, cfg, trace)
        first_call = len(trace)
        tune_gamma(st, hyper, new_gamma, cfg, trace)
        end, start = trace.records[first_call - 1], trace.records[first_call]
        assert np.array_equal(end.theta, start.theta)
        assert end.data_fit == start.data_fit
        assert end.reg_norm == start.reg_norm
        assert end.effective_hyperparam == start.effective_hyperparam
        assert end.effective_hyperparam == float(np.mean(hyper.gamma))
        assert trace.records[-1].effective_hyperparam == float(np.mean(new_gamma))

    def test_trace_records_are_read_only(self):
        # Writing to one record's theta must not change its neighbours.
        st, hyper, new_gamma = self._sweep_case("mixed")
        trace = ParetoTrace()
        tune_gamma(st, hyper, new_gamma, IntegrationConfig(step_h=1e-3), trace)
        for rec in trace:
            assert not rec.theta.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rec.theta[0] = 0.0

    def test_trace_requires_loss_accumulator(self):
        rng = np.random.default_rng(35)
        hyper, blocks = rand_problem(rng)
        cfg = IntegrationConfig(step_h=1e-2)
        st = untracked(fit(hyper, blocks, cfg))
        with pytest.raises(ValueError, match="accumulator"):
            tune_gamma(st, hyper, 0.5 * hyper.gamma, cfg, ParetoTrace())

    def test_rejects_nonpositive_target(self):
        rng = np.random.default_rng(36)
        hyper, blocks = rand_problem(rng)
        st = fit(hyper, blocks, CFG)
        with pytest.raises(ValueError):
            tune_gamma(st, hyper, 0.0 * hyper.gamma, CFG)


class _RecordTrace:
    """The trace as one ``TraceRecord`` per point, with the record-based CSV
    writer: the reference for the columnar ``ParetoTrace``."""

    def __init__(self):
        self.records = []

    def write_csv(self, path):
        n = self.records[0].theta.shape[0]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["effective_param", "data_fit", "reg_norm"]
                + [f"theta_{k}" for k in range(n)]
            )
            for rec in self.records:
                writer.writerow(
                    [repr(rec.effective_hyperparam), repr(rec.data_fit), repr(rec.reg_norm)]
                    + [repr(float(t)) for t in rec.theta]
                )


def _trace_points_per_record(p0, q0, r0, w, bh, c, gammas, theta0):
    """``engine._trace_points`` building one ``TraceRecord`` per point."""
    x = gammas * theta0
    z = x.dot(w)
    theta = x.dot(p0.T) + q0 - (c * (z + bh)).dot(w.T)
    qx = x.dot(q0) - (c * z).dot(bh)
    r = r0 - 0.5 * c.dot(bh * bh)
    s_value = 0.5 * (np.einsum("ij,ij->i", x, theta) + qx) + r
    total = -s_value + 0.5 * x.dot(theta0)
    diff = theta - theta0
    data_fit = total - 0.5 * np.einsum("ij,ij,ij->i", gammas, diff, diff)
    reg_norm = 0.5 * np.einsum("ij,ij->i", diff, diff)
    return [
        engine.TraceRecord(label, th, fit_, reg)
        for label, th, fit_, reg in zip(
            gammas.mean(axis=1).tolist(), theta, data_fit.tolist(), reg_norm.tolist()
        )
    ]


def _append_records(trace, chunks):
    """``engine._append_points`` for the chunks of ``_trace_points_per_record``."""
    for records in chunks:
        trace.records.extend(records)


class TestTraceReference:
    """The columnar trace holds, bit for bit, the points and CSV bytes of the
    per-record trace: the same sweeps, run once more with
    ``engine._trace_points`` and ``engine._append_points`` replaced by
    ``_trace_points_per_record`` and ``_append_records``."""

    @staticmethod
    def _case(kind):
        # The targets of consecutive tune_gamma calls, their step size and
        # the number of trace points.
        rng = np.random.default_rng(41)
        hyper, blocks = rand_problem(rng, n=6)
        st = fit(hyper, blocks, CFG)
        mixed = np.where(np.arange(6) % 2 == 0, 3.0, 0.25)
        targets, h, points = {
            "forward": ([3.0 * hyper.gamma], 0.03, 35),
            "backward": ([0.1 * hyper.gamma], 0.03, 35),
            "mixed": ([mixed], 0.03, 69),
            "no-change": ([hyper.gamma], 0.03, 1),
            # 500 steps a phase: two evaluation chunks each.
            "long": ([mixed], 2e-3, 1001),
            # 15 steps a phase: down, then up, then both.
            "chained": ([0.1 * hyper.gamma, mixed, hyper.gamma], 0.07, 16 + 16 + 31),
        }[kind]
        return st, hyper, targets, IntegrationConfig(step_h=h), points

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=float).tobytes()

    @pytest.mark.parametrize(
        "kind", ["forward", "backward", "mixed", "no-change", "long", "chained"]
    )
    def test_columns_and_csv_match_per_record_trace(self, kind, tmp_path, monkeypatch):
        st, hyper, targets, cfg, points = self._case(kind)

        def sweep(trace):
            state, hyp = st, hyper
            for target in targets:
                state, hyp = tune_gamma(state, hyp, target, cfg, trace)
            return trace

        trace = sweep(ParetoTrace())
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_trace_points", _trace_points_per_record)
            patch.setattr(engine, "_append_points", _append_records)
            reference = sweep(_RecordTrace())
        got, want = trace.records, reference.records
        assert len(trace) == len(got) == len(want) == points
        for field in ("effective_hyperparam", "data_fit", "reg_norm"):
            assert self._bits([getattr(rec, field) for rec in got]) == self._bits(
                [getattr(rec, field) for rec in want]
            ), field
        assert self._bits([rec.theta for rec in got]) == self._bits([rec.theta for rec in want])
        trace.write_csv(tmp_path / "columns.csv")
        reference.write_csv(tmp_path / "records.csv")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()


class TestUntrackedState:
    """A state without the loss accumulator stays without one through every
    flow operation, RK4 and exact, and its p and q are those of the same
    chain run from r = 0.0."""

    @staticmethod
    def _chain(state, hyper, blocks):
        up = 3.0 * hyper.gamma
        down = 0.5 * up
        mixed = np.where(np.arange(hyper.n) % 2 == 0, 2.0, 0.25) * down
        cfg = IntegrationConfig(step_h=1e-2)
        states = [add_block(state, blocks[0], CFG)]
        states.append(remove_block(states[-1], blocks[1], CFG))
        states.append(tune_lambda(states[-1], blocks[2], 0.2, 0.1, CFG))
        states.append(tune_lambda(states[-1], blocks[2], 0.1, 0.3, CFG))
        for old, new in ((hyper.gamma, up), (up, down), (down, mixed)):
            states.append(tune_gamma(states[-1], hyper.with_gamma(old), new, cfg)[0])
        states.append(rls_add(states[-1], blocks[1]))
        states.append(rls_remove(states[-1], blocks[0]))
        return states

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_chain_keeps_r_none_and_p_q_of_the_tracked_chain(self, m):
        rng = np.random.default_rng(70 + m)
        hyper, blocks = rand_problem(rng, n=5, n_blocks=4, m=m, lam=0.2)
        start = fit(hyper, blocks[1:], CFG)
        tracked = self._chain(start, hyper, blocks)
        bare = self._chain(untracked(start), hyper, blocks)
        for with_r, without_r in zip(tracked, bare):
            assert isinstance(with_r.r, float)
            assert without_r.r is None
            assert np.array_equal(without_r.p, with_r.p)
            assert np.array_equal(without_r.q, with_r.q)
            assert without_r.elapsed == with_r.elapsed


class TestShiftBias:
    def test_same_bias_same_minimizer(self):
        rng = np.random.default_rng(40)
        hyper, blocks = rand_problem(rng)
        st = fit(hyper, blocks, CFG)
        a = extract_solution(st, hyper).theta_star
        b = shift_bias(st, hyper, hyper.theta0.copy()).theta_star
        np.testing.assert_array_equal(a, b)

    def test_matches_oracle_refit(self):
        rng = np.random.default_rng(41)
        hyper, blocks = rand_problem(rng)
        st = fit(hyper, blocks, CFG)
        new_theta0 = rng.normal(size=hyper.n)
        shifted = shift_bias(st, hyper, new_theta0)
        oracle = solve_direct(hyper.with_theta0(new_theta0), blocks)
        assert relative_l1(shifted.theta_star, oracle.theta_star) < 1e-10


class TestSolutionReference:
    """extract_solution, shift_bias and loss_from_state against their formulas
    written out: theta = P x + q and loss = -(x'P x / 2 + q'x + r) + theta0'x / 2
    at x = gamma * theta0, compared by their bytes."""

    @staticmethod
    def _bytes(value):
        return np.float64(value).tobytes()

    @pytest.mark.parametrize("tracked", [True, False])
    def test_bit_for_bit(self, tracked):
        rng = np.random.default_rng(91)
        hyper, blocks = rand_problem(rng, n=7, n_blocks=5, m=2)
        state = fit(hyper, blocks, CFG)
        if not tracked:
            state = untracked(state)
        # Many biases, small ones too: a formula that differs only in rounding
        # changes the bits of a few percent of them.
        draws = rng.normal(size=(200, 7)) * np.repeat([1.0, 1e-3], 100)[:, None]
        for theta0 in [hyper.theta0, np.zeros(7), *draws]:
            h = hyper.with_theta0(theta0)
            x = h.gamma * h.theta0
            theta = state.p @ x + state.q
            solutions = (
                extract_solution(state, h),
                shift_bias(state, hyper, theta0),
                extract_solution(state, h, blocks),
            )
            for sol in solutions:
                assert sol.theta_star.tobytes() == theta.tobytes()
            if not tracked:
                assert solutions[0].total_loss is None and solutions[1].total_loss is None
                with pytest.raises(ValueError, match="not tracked"):
                    loss_from_state(state, h)
                continue
            s_value = 0.5 * float(x @ (state.p @ x)) + float(state.q @ x) + state.r
            loss = -s_value + 0.5 * float(h.theta0 @ x)
            assert self._bytes(loss_from_state(state, h)) == self._bytes(loss)
            for sol in solutions[:2]:
                assert self._bytes(sol.total_loss) == self._bytes(loss)


class TestQueryAtEachSize:
    """extract_solution and shift_bias, which compute with BLAS ``dot``, give
    the bits of the ``@`` forms theta = P (gamma * theta0) + q and
    loss = -(x'P x / 2 + q'x + r) + theta0'x / 2, at the benchmark's sizes."""

    @pytest.mark.parametrize("tracked", [True, False])
    @pytest.mark.parametrize("n", [1, 10, 21, 100])
    def test_bit_for_bit(self, n, tracked):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        state = RiccatiState(p=a @ a.T / n + np.eye(n), q=rng.normal(size=n),
                             r=0.3 if tracked else None, elapsed=1.0)
        hyper = Hyperparams(gamma=rng.uniform(0.5, 2.0, n), theta0=rng.normal(size=n))
        blocks = [DataBlock(phi=rng.normal(size=(2, n)), y=rng.normal(size=2))]
        for theta0 in [hyper.theta0, *rng.normal(size=(20, n))]:
            h = hyper.with_theta0(theta0)
            x = h.gamma * h.theta0
            theta = state.p @ x + state.q
            for sol in (extract_solution(state, h), shift_bias(state, hyper, theta0)):
                assert np.array_equal(sol.theta_star, theta)
                if tracked:
                    s_value = 0.5 * float(x @ (state.p @ x)) + float(state.q @ x) + state.r
                    assert sol.total_loss == -s_value + 0.5 * float(h.theta0 @ x)
                else:
                    assert sol.total_loss is None
            diff = theta - theta0
            sol = extract_solution(state, h, blocks)
            assert np.array_equal(sol.theta_star, theta)
            assert sol.reg_value == 0.5 * float(h.gamma @ (diff * diff))


class TestValuesOwnTheirArrays:
    """Arrays from the caller are copied where they enter a value object, and
    every array of a state or solution that an operation returns is read-only
    and shares no memory with the caller's arrays."""

    @staticmethod
    def _arrays(value):
        return [v for v in vars(value).values() if isinstance(v, np.ndarray)]

    @staticmethod
    def _values():
        rng = np.random.default_rng(92)
        n = 4
        gamma, theta0, q = rng.uniform(0.5, 2.0, n), rng.normal(size=n), rng.normal(size=n)
        a = rng.normal(size=(n, n))
        p = a @ a.T / n + np.eye(n)
        bias, new_gamma = rng.normal(size=n), gamma * rng.uniform(0.8, 1.5, n)
        block = DataBlock(phi=rng.normal(size=(2, n)), y=rng.normal(size=2), lam=0.5)
        hyper = Hyperparams(gamma=gamma, theta0=theta0)
        state = RiccatiState(p=p, q=q, r=0.0)
        added = add_block(state, block, CFG)
        exact = rls_add(state, block)
        values = {
            "Hyperparams": hyper,
            "RiccatiState": state,
            "with_theta0": hyper.with_theta0(bias),
            "with_gamma": hyper.with_gamma(new_gamma),
            "shift_bias": shift_bias(state, hyper, bias),
            "extract_solution": extract_solution(state, hyper, [block]),
            "add_block": added,
            "remove_block": remove_block(added, block, CFG),
            "rls_add": exact,
            "rls_remove": rls_remove(exact, block),
            "tune_gamma": tune_gamma(state, hyper, new_gamma, CFG)[0],
            "fit": fit(hyper, [block], CFG),
            "new_state": new_state(hyper),
            "rls_fit": rls_fit(hyper, [block]),
        }
        result = pdhg_solve(
            n, [block], ProxSpec(kind="weighted_l1", weights=np.full(n, 0.1)),
            PdhgConfig(max_iters=50), CFG,
        )
        values["pdhg_solve.solution"] = result.solution
        values["pdhg_solve"] = result
        return values, (gamma, theta0, p, q, bias, new_gamma)

    def test_mutating_the_callers_arrays_changes_no_value(self):
        values, callers = self._values()
        before = {name: [a.copy() for a in self._arrays(v)] for name, v in values.items()}
        for arr in callers:
            arr += 1.0
        for name, value in values.items():
            for arr, old in zip(self._arrays(value), before[name], strict=True):
                assert arr.tobytes() == old.tobytes(), name
                assert not any(np.shares_memory(arr, c) for c in callers), name

    def test_every_array_is_read_only(self):
        values, _ = self._values()
        for name, value in values.items():
            assert self._arrays(value), name
            for arr in self._arrays(value):
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0.0


class TestFlowInvariants:
    def test_spd_preserved_along_forward_integration(self):
        rng = np.random.default_rng(50)
        hyper, blocks = rand_problem(rng, n_blocks=4, m=2)
        st = new_state(hyper)
        for blk in blocks:
            st = add_block(st, blk, CFG)
            assert st.is_spd()

    def test_inverse_grows_by_block_information(self):
        rng = np.random.default_rng(52)
        hyper, blocks = rand_problem(rng, n_blocks=1, m=2, lam=0.7)
        st0 = new_state(hyper)
        st1 = add_block(st0, blocks[0], CFG)
        increment = np.linalg.inv(st1.p) - np.linalg.inv(st0.p)
        expected = blocks[0].lam * blocks[0].phi.T @ blocks[0].phi
        assert np.max(np.abs(increment - expected)) <= 1e-8

    def test_final_state_matches_closed_form(self):
        rng = np.random.default_rng(53)
        hyper, blocks = rand_problem(rng, n_blocks=5)
        st = fit(hyper, blocks, CFG)
        p_exact, q_exact = closed_form(hyper, blocks)
        assert np.max(np.abs(st.p - p_exact)) < 1e-10
        assert np.max(np.abs(st.q - q_exact)) < 1e-10

    def test_halving_step_cuts_error_by_fourth_order(self):
        hyper = Hyperparams(gamma=[1.0, 2.0], theta0=[0.5, -0.25])
        blk = DataBlock(phi=[[1.0, 0.5], [-0.3, 1.2]], y=[0.7, -0.2], lam=2.0)
        p_exact, q_exact = closed_form(hyper, [blk])
        errors = {}
        for h in (1e-2, 5e-3):
            st = fit(hyper, [blk], IntegrationConfig(step_h=h))
            errors[h] = np.abs(st.p - p_exact).sum() + np.abs(st.q - q_exact).sum()
        assert errors[1e-2] / errors[5e-3] >= 8.0

    def test_minimizer_zeroes_loss_gradient(self):
        rng = np.random.default_rng(54)
        hyper, blocks = rand_problem(rng)
        st = fit(hyper, blocks, CFG)
        theta = extract_solution(st, hyper).theta_star
        grad = hyper.gamma * (theta - hyper.theta0)
        for blk in blocks:
            grad = grad + blk.lam * blk.phi.T @ (blk.phi @ theta - blk.y)
        assert np.max(np.abs(grad)) <= 1e-6

    def test_loss_recovery_identity(self):
        rng = np.random.default_rng(55)
        hyper, blocks = rand_problem(rng)
        st = fit(hyper, blocks, CFG)
        direct = extract_solution(st, hyper, blocks).total_loss
        recovered = loss_from_state(st, hyper)
        assert abs(direct - recovered) <= 1e-8 * abs(direct)


def _entries(lo, hi):
    return hst.floats(lo, hi, allow_nan=False, allow_infinity=False)


@hst.composite
def _round_trip_cases(draw):
    # A start state p = diag(1/gamma) with a drawn q and r, and one block.
    n = draw(hst.integers(1, 6))
    m = draw(hst.integers(1, 3))
    gamma = draw(hnp.arrays(np.float64, n, elements=_entries(0.5, 4.0)))
    q = draw(hnp.arrays(np.float64, n, elements=_entries(-2.0, 2.0)))
    r = draw(_entries(-2.0, 2.0))
    phi = draw(hnp.arrays(np.float64, (m, n), elements=_entries(-2.0, 2.0)))
    y = draw(hnp.arrays(np.float64, m, elements=_entries(-2.0, 2.0)))
    lam = draw(_entries(0.05, 1.0))
    start = RiccatiState(p=np.diag(1.0 / gamma), q=q, r=r, elapsed=lam)
    return start, DataBlock(phi=phi, y=y, lam=lam)


@settings(max_examples=60, deadline=None)
@given(case=_round_trip_cases())
def test_add_then_remove_returns_the_state(case):
    # RK4 is not exactly time-reversible: the round trip leaves an error of
    # the order (h a0)^4, a0 the largest eigenvalue of phi P0 phi', above a
    # rounding floor.
    start, blk = case
    a0 = np.linalg.eigvalsh(blk.phi @ start.p @ blk.phi.T)[-1]
    tol = (CFG.step_h * a0) ** 4 + 1e-10
    back = remove_block(add_block(start, blk, CFG), blk, CFG)
    assert np.max(np.abs(back.p - start.p)) <= tol * max(1.0, np.max(np.abs(start.p)))
    assert np.max(np.abs(back.q - start.q)) <= tol * max(1.0, np.max(np.abs(start.q)))
    assert abs(back.r - start.r) <= tol * max(1.0, abs(start.r))
