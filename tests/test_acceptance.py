"""End-to-end acceptance checks.

Each test exercises one promised behavior at its stated tolerance, measures
wall time against the stated budget, and prints a single PASS/FAIL line
(visible with ``pytest tests/test_acceptance.py -s``).
"""

import contextlib
import functools
import io
import json
import time

import numpy as np
import pytest

from ricreg import (
    Checkpoint,
    DataBlock,
    Hyperparams,
    IntegrationConfig,
    ParetoTrace,
    PdhgConfig,
    ProxSpec,
    add_block,
    extract_solution,
    fit,
    loss_from_state,
    new_state,
    pdhg_solve,
    remove_block,
    rls_fit,
    solve_direct,
    tune_gamma,
    tune_lambda,
    write_checkpoint,
)
from ricreg.bases import feature_matrix, get_basis, residual_row
from ricreg.bench import bench_incremental
from ricreg.cli import main
from ricreg.problems import (
    KO_INITIAL,
    REACTION_DIFFUSIVITY,
    REACTION_RATE,
    gen_ko,
    gen_reaction_diffusion,
    gen_sin10x,
    relative_l1,
    relative_l2,
    simulate_quadratic_system,
)
from ricreg.rng import Xoshiro256pp


@contextlib.contextmanager
def criterion(num, limit_s, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL  ({time.perf_counter() - t0:.1f}s) {description}")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit_s
    print(
        f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  "
        f"({elapsed:.1f}s / limit {limit_s:g}s) {description}"
    )
    assert ok, f"runtime {elapsed:.2f}s exceeded the {limit_s}s budget"


def random_blocks(rng, count, n, m=1, lam=1.0):
    return [
        DataBlock(phi=np.array([[rng.gaussian() for _ in range(n)] for _ in range(m)]),
                  y=np.array([rng.gaussian() for _ in range(m)]), lam=lam)
        for _ in range(count)
    ]


def test_01_flow_matches_oracle_at_both_steps():
    # The coarse step is only conditionally stable on this stream family (the
    # cubic feature reaches 1e3 on the domain, so early draws set the
    # stiffness); this seed's stream is integrable at both steps.
    with criterion(1, 10.0, "flow fit matches the direct solve at h=1e-3 and h=1e-4"):
        prob = gen_sin10x(1000, seed=0, noise_scale=1.0)
        hyper = Hyperparams(gamma=np.full(10, 100.0), theta0=np.zeros(10))
        oracle = solve_direct(hyper, prob.blocks)
        errs = {}
        for h in (1e-3, 1e-4):
            state = fit(hyper, prob.blocks, IntegrationConfig(step_h=h))
            theta = extract_solution(state, hyper).theta_star
            errs[h] = relative_l1(theta, oracle.theta_star)
        assert errs[1e-3] <= 1e-6, errs
        assert errs[1e-4] <= 1e-8, errs


def test_02_integrator_is_fourth_order():
    with criterion(2, 1.0, "halving h cuts the closed-form error by >= 8x"):
        hyper = Hyperparams(gamma=[1.0, 2.0], theta0=[0.5, -0.25])
        blk = DataBlock(phi=[[1.0, 0.5], [-0.3, 1.2]], y=[0.7, -0.2], lam=2.0)
        a = np.diag(hyper.gamma) + blk.lam * blk.phi.T @ blk.phi
        p_exact = np.linalg.inv(a)
        q_exact = p_exact @ (blk.lam * blk.phi.T @ blk.y)
        errors = {}
        for h in (1e-2, 5e-3):
            st = fit(hyper, [blk], IntegrationConfig(step_h=h))
            errors[h] = np.abs(st.p - p_exact).sum() + np.abs(st.q - q_exact).sum()
        assert errors[1e-2] / errors[5e-3] >= 8.0, errors


def test_03_woodbury_updates_are_exact():
    with criterion(3, 5.0, "Woodbury updates match the direct solve on 100 instances"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(1, 21))
            m = int(rng.integers(1, 6))
            count = int(rng.integers(0, 51))
            hyper = Hyperparams(
                gamma=rng.uniform(0.5, 2.0, n), theta0=rng.normal(size=n)
            )
            blocks = [
                DataBlock(phi=rng.normal(size=(m, n)), y=rng.normal(size=m),
                          lam=float(rng.uniform(0.1, 2.0)))
                for _ in range(count)
            ]
            state = rls_fit(hyper, blocks)
            oracle = solve_direct(hyper, blocks)
            assert relative_l1(state.theta_star(hyper), oracle.theta_star) <= 1e-10


def test_04_removal_matches_refit_on_survivors():
    with criterion(4, 10.0, "fit 50 blocks, remove 10, match the 40-block solve"):
        rng = Xoshiro256pp(404)
        hyper = Hyperparams(gamma=np.ones(8), theta0=np.zeros(8))
        blocks = random_blocks(rng, 50, 8)
        cfg = IntegrationConfig(step_h=1e-4)
        state = fit(hyper, blocks, cfg)
        for blk in blocks[40:]:
            state = remove_block(state, blk, cfg)
        oracle = solve_direct(hyper, blocks[:40])
        theta = extract_solution(state, hyper).theta_star
        assert relative_l1(theta, oracle.theta_star) <= 1e-6


def test_05_boundary_weight_retune():
    with criterion(5, 10.0, "raising the boundary weight tightens the boundary fit"):
        prob = gen_reaction_diffusion(60, seed=5, noise_scale=0.1, lambda_b=1.0)
        n = 21
        hyper = Hyperparams(gamma=np.ones(n), theta0=np.zeros(n))
        cfg = IntegrationConfig(step_h=1e-4)
        state = fit(hyper, prob.blocks, cfg)
        basis = get_basis("fourier-21")
        edges = feature_matrix(basis, [0.0, 1.0])
        theta_before = extract_solution(state, hyper).theta_star
        residual_before = np.abs(edges @ theta_before).sum()
        for blk in prob.blocks[-2:]:  # the two boundary rows
            state = tune_lambda(state, blk, 1.0, 10.0, cfg)
        theta_after = extract_solution(state, hyper).theta_star
        residual_after = np.abs(edges @ theta_after).sum()
        assert residual_after < residual_before
        reweighted = list(prob.blocks[:-2]) + [
            DataBlock(phi=b.phi, y=b.y, lam=10.0) for b in prob.blocks[-2:]
        ]
        oracle = solve_direct(hyper, reweighted)
        assert relative_l1(theta_after, oracle.theta_star) <= 1e-6


@functools.lru_cache(maxsize=1)
def _decade_sweep():
    """Sweep the uniform regularization weight 1 -> 1e-3 on a Fourier instance,
    one step size per decade, recording the full trace.

    The instance is deliberately under-determined (15 data rows, 21 basis
    functions) with a nonzero prior: directions the data barely constrains are
    the ones the weight sweep actually moves, so each decade's integration
    error compounds visibly (here roughly 10x per decade) instead of being
    damped by a dominating data term.
    """
    prob = gen_reaction_diffusion(15, seed=3, noise_scale=0.1, lambda_b=1.0)
    n = 21
    hyper = Hyperparams(gamma=np.ones(n), theta0=np.full(n, 0.5))
    state = fit(hyper, prob.blocks, IntegrationConfig(step_h=1e-4))
    trace = ParetoTrace()
    errors = []
    points_per_decade = []
    for gamma_new, h in ((0.1, 1e-2), (0.01, 1e-3), (0.001, 1e-4)):
        before = len(trace)
        state, hyper = tune_gamma(
            state, hyper, np.full(n, gamma_new), IntegrationConfig(step_h=h), trace
        )
        points_per_decade.append(len(trace) - before)
        oracle = solve_direct(hyper, prob.blocks)
        theta = extract_solution(state, hyper).theta_star
        errors.append(relative_l1(theta, oracle.theta_star))
    return errors, trace, points_per_decade


def test_06_weight_sweep_error_accumulates_but_stays_bounded():
    with criterion(6, 60.0, "decade sweep 1 -> 1e-3 drifts monotonically, stays <= 1e-2"):
        errors, _, _ = _decade_sweep()
        assert errors[0] < errors[1] < errors[2], errors
        assert errors[2] <= 1e-2, errors


def test_07_sweep_trace_is_a_pareto_path():
    with criterion(7, 60.0, "sweep trace trades data fit against prior distance monotonically"):
        _, trace, points_per_decade = _decade_sweep()
        assert all(count >= 100 for count in points_per_decade), points_per_decade
        data_fit = np.array([rec.data_fit for rec in trace])
        reg_norm = np.array([rec.reg_norm for rec in trace])
        assert np.all(np.diff(data_fit) <= 0.0)
        assert np.all(np.diff(reg_norm) >= 0.0)


def test_08_bias_shift_cost_independent_of_history(tmp_path):
    with criterion(8, 10.0, "shift-bias CPU time is history-independent and exact"):
        rng = Xoshiro256pp(808)
        n = 10
        hyper = Hyperparams(gamma=np.ones(n), theta0=np.zeros(n))
        checkpoints, blocks_by = {}, {}
        for count in (100, 10000):
            blocks = random_blocks(rng, count, n)
            blocks_by[count] = blocks
            state = rls_fit(hyper, blocks).to_riccati_state(r=None, elapsed=float(count))
            path = tmp_path / f"ck{count}.json"
            write_checkpoint(
                Checkpoint(version="1", n=n, hyperparams=hyper, state=state), path
            )
            checkpoints[count] = path

        # Process CPU time (other processes on the host do not count), with
        # the reps of the two sizes interleaved so that a slow phase of the
        # host hits both alike.
        argvs = {
            count: ["shift-bias", "--checkpoint", str(path), "--theta0", "0.3",
                    "--out", str(tmp_path / f"o{count}.json")]
            for count, path in checkpoints.items()
        }
        for argv in argvs.values():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0  # warm-up
        reps = {count: [] for count in argvs}
        payloads = {}
        for _ in range(25):
            for count, argv in argvs.items():
                buf = io.StringIO()
                t0 = time.process_time()
                with contextlib.redirect_stdout(buf):
                    code = main(argv)
                reps[count].append(time.process_time() - t0)
                assert code == 0
                payloads[count] = json.loads(buf.getvalue())
        seconds = {count: float(np.median(r)) for count, r in reps.items()}
        assert seconds[10000] / seconds[100] <= 2.0, seconds
        oracle = solve_direct(hyper.with_theta0(np.full(n, 0.3)), blocks_by[10000])
        err = relative_l1(np.array(payloads[10000]["theta_star"]), oracle.theta_star)
        assert err <= 1e-8


def test_09_sparse_dynamics_identification():
    with criterion(9, 120.0, "weighted-l1 solves recover the quadratic dynamics"):
        prob = gen_ko(grid_count=1000, solver_h=1e-4, fd_h=1e-3)
        spec = ProxSpec(kind="weighted_l1", weights=np.full(10, 0.1))
        cfg = PdhgConfig(sigma_theta=0.5, sigma_w=0.5)
        inner_cfg = IntegrationConfig(step_h=1e-3)
        dominant = {0: (8, 1.0), 1: (9, 1.0), 2: (7, -2.0)}  # x2x3, x1x3, x1x2
        thetas = []
        for i, eq_blocks in enumerate(prob.equations):
            result = pdhg_solve(10, eq_blocks, spec, cfg, inner_cfg)
            assert result.converged
            theta = result.solution.theta_star
            thetas.append(theta)
            idx, target = dominant[i]
            assert np.argmax(np.abs(theta)) == idx
            assert abs(theta[idx] - target) <= 0.05 * abs(target)
            others = np.delete(np.abs(theta), idx)
            assert np.max(others) <= 0.05
        times, replay = simulate_quadratic_system(
            np.array(thetas), KO_INITIAL, 10.0, 1e-3
        )
        reference = prob.trajectory_on(times)
        for i in range(3):
            assert relative_l2(replay[:, i], reference[:, i]) < 0.01


def test_10_pdhg_reaches_stationarity():
    with criterion(10, 10.0, "weighted-l1 solutions satisfy the stationarity bound"):
        tol = 1e-10
        rng = np.random.default_rng(1010)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            blocks = [
                DataBlock(phi=rng.normal(size=(1, n)), y=rng.normal(size=1))
                for _ in range(int(rng.integers(1, 6)))
            ]
            weights = rng.uniform(0.05, 0.5, size=n)
            result = pdhg_solve(
                n, blocks, ProxSpec(kind="weighted_l1", weights=weights),
                PdhgConfig(tol=tol), IntegrationConfig(step_h=1e-4),
            )
            assert result.converged
            theta = result.solution.theta_star
            grad = np.zeros(n)
            for blk in blocks:
                grad += blk.lam * blk.phi.T @ (blk.phi @ theta - blk.y)
            assert np.all(np.abs(grad) <= weights + 10 * tol)
        blk = DataBlock(phi=[[1.0]], y=[1.0])
        result = pdhg_solve(
            1, [blk], ProxSpec(kind="weighted_l1", weights=[0.1]),
            PdhgConfig(tol=tol), IntegrationConfig(step_h=1e-4),
        )
        assert abs(result.solution.theta_star[0] - 0.9) <= 1e-6


def test_11_per_update_cost_scaling():
    with criterion(11, 120.0, "incremental updates stay flat while recompute grows"):
        ratios = {}
        for method in ("riccati", "rls", "lsq"):
            report = bench_incremental(
                n=10, m=1, sizes=[100, 10000], method=method, h=1e-2
            )
            ratios[method] = report.ratio()
        assert ratios["riccati"] <= 2.0, ratios
        assert ratios["rls"] <= 2.0, ratios
        assert ratios["lsq"] >= 10.0, ratios


def test_12_structural_invariants():
    with criterion(12, 30.0, "definiteness, information growth, loss identity, conservation"):
        rng = np.random.default_rng(1212)
        cfg = IntegrationConfig(step_h=1e-3)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            hyper = Hyperparams(
                gamma=rng.uniform(0.5, 2.0, n), theta0=rng.normal(size=n)
            )
            blocks = []
            state = new_state(hyper)
            for _ in range(int(rng.integers(1, 5))):
                m = int(rng.integers(1, 4))
                blk = DataBlock(
                    phi=rng.normal(size=(m, n)), y=rng.normal(size=m),
                    lam=float(rng.uniform(0.2, 1.5)),
                )
                blocks.append(blk)
                previous = state
                state = add_block(state, blk, cfg)
                assert state.is_spd()
                growth = np.linalg.inv(state.p) - np.linalg.inv(previous.p)
                expected = blk.lam * blk.phi.T @ blk.phi
                assert np.max(np.abs(growth - expected)) <= 1e-8
            direct = extract_solution(state, hyper, blocks).total_loss
            recovered = loss_from_state(state, hyper)
            assert abs(direct - recovered) <= 1e-8 * max(abs(direct), 1e-30)
        ko = gen_ko(grid_count=4, solver_h=1e-3, fd_h=1e-2)
        invariant = ko.states[:, 0] ** 2 - ko.states[:, 1] ** 2
        assert np.max(np.abs(invariant - invariant[0])) <= 1e-6
