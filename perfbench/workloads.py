"""The benchmark workloads.

Each workload is a closed loop with one caller.  ``setup`` builds the inputs
from the seed (outside the timed region); ``run_round`` performs one fixed
operation sequence and checks every output against a reference outside the
timed region.  A run repeats the same round for ``--seconds`` (see run.py).

Every end-to-end metric must be reported on every workload, so each round
contains at least one operation of each kind the metrics name: an initial fit,
edits (add, remove, retune a block weight), state queries, one traced gamma
sweep and one weighted-l1 PDHG solve.  The operations a workload was not
built for are kept small; the docstring of each class says which they are.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import time
import traceback

import numpy as np

from ricreg import cli, engine, oracle, pdhg, problems, rls
from ricreg.bases import feature_matrix, get_basis
from ricreg.model import DataBlock, Hyperparams, RiccatiState, write_blocks
from ricreg.rng import Xoshiro256pp

# "call" holds every timed call of a round, whatever its kind: wall_s.
LATENCY_KINDS = ("fit", "update", "query", "sweep", "pdhg", "call")
REPEATS = 5


class Recorder:
    """Latency samples, correctness gates and operation counts of one run.

    Rounds repeat the same operations, so a sample is filed under its kind
    and its position in the round: ``samples[kind][position]`` holds one
    timing per round.  Calls made in a round (not in a set-up) are also
    filed under "call".
    """

    def __init__(self):
        self.samples = {kind: {} for kind in LATENCY_KINDS}
        self._position = dict.fromkeys(LATENCY_KINDS, 0)
        self.attempted = 0
        self.raised = 0
        self.gate_failures = 0
        self.gates: dict[str, dict] = {}
        self.errors: list[float] = []
        self.excluded_ns = 0
        self.tracer = None
        self.in_round = False

    def call(self, kind, fn, *args):
        """One user-facing operation, timed.  Returns (result, elapsed ns).

        An exception is counted, reported on stderr and re-raised as
        RoundAborted: the state the round was building is then unknown.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as exc:
            self.raised += 1
            traceback.print_exc(file=sys.stderr)
            raise RoundAborted(getattr(fn, "__name__", str(fn))) from exc
        elapsed = time.perf_counter_ns() - t0
        if kind is not None:
            self.sample(kind, elapsed)
        if self.in_round:
            self.sample("call", elapsed)
        return result, elapsed

    def repeated(self, kind, fn, *args):
        """A call of tens of microseconds that changes nothing in place (a
        state query, or an exact update that returns a new state) runs
        REPEATS times back to back on the same arguments, and its sample is
        the fastest.  One call alone is at the mercy of one interrupt or one
        cold cache line."""
        best = None
        for _ in range(REPEATS):
            result, elapsed = self.call(None, fn, *args)
            best = elapsed if best is None else min(best, elapsed)
        self.sample(kind, best)
        return result

    def rewind(self, *kinds: str) -> None:
        """File the next samples of ``kinds`` under their first positions
        again: the round repeats those operations."""
        for kind in kinds:
            self._position[kind] = 0

    def begin(self, in_round: bool) -> None:
        """Start a round or a set-up: positions count from 0 again."""
        self._position = dict.fromkeys(LATENCY_KINDS, 0)
        self.in_round = in_round

    def sample(self, kind: str, elapsed_ns: int) -> None:
        position = self._position[kind]
        self._position[kind] += 1
        self.samples[kind].setdefault(position, []).append(elapsed_ns)

    def best(self, kind: str) -> list[int]:
        """Per position, the fastest of its repetitions."""
        return [min(v) for v in self.samples[kind].values()]

    @contextlib.contextmanager
    def untimed(self):
        """Checks run here; their time is taken out of the round's wall time."""
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.excluded_ns += time.perf_counter_ns() - t0

    def gate(self, name: str, ok: bool, contract: bool = False) -> bool:
        """Record one check.  ``contract`` marks an exact documented invariant
        (Pareto monotonicity) as opposed to a tolerance against a reference."""
        g = self.gates.setdefault(
            name, {"passed": 0, "failed": 0, "kind": "contract" if contract else "tolerance"}
        )
        g["passed" if ok else "failed"] += 1
        if not ok:
            self.gate_failures += 1
        return ok

    def check_theta(self, name: str, theta, reference, tol: float) -> float:
        err = problems.relative_l1(theta, reference)
        self.errors.append(err)
        self.gate(name, err <= tol)
        return err

    def count(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.add(name, value)

    def maximum(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.maximum(name, value)


class RoundAborted(RuntimeError):
    pass


# -- shared pieces ---------------------------------------------------------------


def oracle_theta(hyper, blocks):
    return oracle.solve_direct(hyper, blocks).theta_star


def exact_inner(n: int, blocks, sigma_theta: float) -> RiccatiState:
    """PDHG inner state from the exact Woodbury propagator (set-up only)."""
    hyper = pdhg.inner_hyperparams(n, sigma_theta)
    return rls.rls_fit(hyper, blocks).to_riccati_state(r=None)


def check_stationarity(rec: Recorder, blocks, theta, weights, tol: float) -> None:
    """Acceptance-10 bound for weighted l1: |grad data(theta)| <= w + 10 tol."""
    grad = np.zeros(theta.shape[0])
    for b in blocks:
        grad += b.lam * (b.phi.T @ (b.phi @ theta - b.y))
    rec.gate("pdhg_stationarity", bool(np.all(np.abs(grad) <= weights + 10 * tol)))


def check_pareto(rec: Recorder, data_fit, reg_norm) -> None:
    """A downward gamma sweep must not raise the data fit nor lower the prior
    distance between consecutive trace points, to the last bit."""
    data_fit, reg_norm = np.asarray(data_fit), np.asarray(reg_norm)
    violations = int(np.sum(np.diff(data_fit) > 0.0) + np.sum(np.diff(reg_norm) < 0.0))
    rec.count("engine.trace.points", len(data_fit))
    rec.count("engine.trace.violations", violations)
    rec.gate("pareto_monotone", violations == 0, contract=True)


def edit_plan(rnd: random.Random, base, pool, count: int, cycle, factor: float,
              check_every: int):
    """Deterministic mixed edit stream over a model fitted to ``base``.

    Edit kinds repeat ``cycle``, so every seed has the same mix in the same
    order and the model grows at the same rate; the seed draws which blocks
    are removed or tuned.  Adds draw new blocks from ``pool``; removes undo a
    block the stream added earlier; tunes raise the weight of a ``base``
    block by ``factor``, or lower a raised one back.  With ``factor`` 2 every
    edit integrates the same duration, the base weight, so the latency
    percentiles measure the machine, not the plan.  Returns a list of
    (kind, block, new_block, delta_block, snapshot): ``new_block`` carries the
    tuned weight, ``delta_block`` the weight difference (for the exact
    Woodbury mirror), ``snapshot`` the live blocks after the edit when the
    edit is a check point, else None.
    """
    live = dict(enumerate(base))
    added = []
    fresh = iter(pool)
    next_key = len(live)
    plan = []
    for k in range(count):
        kind = cycle[k % len(cycle)]
        if kind == "remove" and not added:
            kind = "add"
        new = delta = None
        if kind == "add":
            block = next(fresh)
            live[next_key] = block
            added.append(next_key)
            next_key += 1
        elif kind == "remove":
            block = live.pop(added.pop(rnd.randrange(len(added))))
        else:
            key = rnd.randrange(len(base))
            block = live[key]
            raised = block.lam != base[key].lam
            new_lam = base[key].lam if raised else base[key].lam * factor
            new = DataBlock(phi=block.phi, y=block.y, lam=new_lam)
            delta = DataBlock(phi=block.phi, y=block.y, lam=abs(new_lam - block.lam))
            live[key] = new
        last = k == count - 1
        snapshot = list(live.values()) if last or (k + 1) % check_every == 0 else None
        plan.append((kind, block, new, delta, snapshot))
    return plan


def apply_edit(rec: Recorder, state, edit, cfg):
    kind, block, new, _, _ = edit
    if kind == "add":
        return rec.call("update", engine.add_block, state, block, cfg)[0]
    if kind == "remove":
        return rec.call("update", engine.remove_block, state, block, cfg)[0]
    return rec.call("update", engine.tune_lambda, state, block, block.lam, new.lam, cfg)[0]


def mirror_edit(state, edit):
    """The same edit by the exact Woodbury update (the rls cross-check)."""
    kind, block, _, delta, _ = edit
    if kind == "add":
        return rls.rls_add(state, block)
    if kind == "remove":
        return rls.rls_remove(state, block)
    grow = edit[2].lam > block.lam
    return rls.rls_add(state, delta) if grow else rls.rls_remove(state, delta)


# The data of every workload is a fixed instance; --seed draws the operation
# plan (which blocks are removed or retuned) and the query values.  Between
# random instances the RK4 error varies up to 40x and PDHG iteration counts up
# to 60x, more than any bound on max_rel_err or pdhg_s could absorb.
DATA_SEED = 0

# RK4 with h = 1e-3 on these streams is accurate to about 1e-7 relative-l1;
# a defect in a kernel or an edit shows up orders of magnitude above.
FLOW_TOL = 1e-5
# Acceptance 06 bound on the chained decade sweep 1 -> 1e-3.
DECADE_SWEEP_TOL = 1e-2
PDHG_TOL = 1e-10


class Workload:
    name = ""
    setups = 9  # set-ups per run, spread over it; setup_s is their median

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def setup(self, rec: Recorder) -> None:
        raise NotImplementedError

    def run_round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class EditDense(Workload):
    """edit-dense: Gaussian blocks from the xoshiro256++ stream, n=100, m=4,
    gamma=1, block weight 0.05 (50 RK4 steps at h=1e-3).  A round fits a
    20-block prefix, then runs 100 edits cycling add, tune (0.05 <-> 0.1),
    remove, each followed by extract_solution; after the stream and outside
    the timed region, the same edits by the exact Woodbury update, compared
    with the flow at every block boundary.  After the fit and again after the
    stream it runs one traced gamma sweep 1 -> 0.5 (100 diagonal steps at
    n=100) and a weighted-l1 PDHG solve on the prefix (exact inner state from
    set-up).

    Why: exercises the dense kernel, where the O(m n^2) BLAS work matters;
    about half of the integration runs backward, so a pre-check on removal or
    a general-m row-space recurrence shows here.  The sweep and PDHG are
    small and are there so that sweep_s and pdhg_s exist on this workload.
    The edit plan is fixed too: with P near I in the directions no block has
    reached yet, every edit integrates at h*a ~ 0.1, so the error grows with
    the edits and which blocks a seeded plan picks moves max_rel_err by 2x.
    """

    name = "edit-dense"
    n = 100
    m = 4
    h = 1e-3
    l1_weight = 0.05

    def setup(self, rec):
        prefix, edits = (6, 12) if self.tiny else (20, 100)
        tracer = rec.tracer
        with (tracer.span("rng.gaussian_blocks") if tracer else contextlib.nullcontext()):
            rng = Xoshiro256pp(DATA_SEED)
            blocks = [
                DataBlock(
                    phi=[[rng.gaussian() for _ in range(self.n)] for _ in range(self.m)],
                    y=[rng.gaussian() for _ in range(self.m)],
                    lam=0.05,
                )
                for _ in range(prefix + edits)
            ]
        self.hyper = Hyperparams(gamma=np.ones(self.n), theta0=np.zeros(self.n))
        self.cfg = engine.IntegrationConfig(step_h=self.h)
        self.prefix = blocks[:prefix]
        self.plan = edit_plan(random.Random(DATA_SEED), self.prefix, blocks[prefix:], edits,
                              ("add", "tune", "remove"), 2.0, check_every=edits // 5)
        self.spec = pdhg.ProxSpec(kind="weighted_l1", weights=np.full(self.n, self.l1_weight))
        self.pcfg = pdhg.PdhgConfig(sigma_theta=0.5, sigma_w=0.5, tol=PDHG_TOL)
        self.inner = exact_inner(self.n, self.prefix, 0.5)

    def run_round(self, rec):
        state, _ = rec.call("fit", engine.fit, self.hyper, self.prefix, self.cfg)
        with rec.untimed():
            theta = engine.extract_solution(state, self.hyper).theta_star
            rec.check_theta("oracle", theta, oracle_theta(self.hyper, self.prefix), FLOW_TOL)
            exact = rls.rls_fit(self.hyper, self.prefix)
        self._sweep_and_pdhg(rec, state, self.prefix)
        # The edit stream runs back to back; each solution is kept and
        # checked after the stream, so that the checks do not evict the
        # state from the caches between one timed call and the next.
        thetas = []
        for edit in self.plan:
            state = apply_edit(rec, state, edit, self.cfg)
            sol = rec.repeated("query", engine.extract_solution, state, self.hyper)
            thetas.append(sol.theta_star)
        with rec.untimed():
            live = self.prefix
            for edit, theta in zip(self.plan, thetas):
                exact = mirror_edit(exact, edit)
                dev = problems.relative_l1(theta, exact.theta_star(self.hyper))
                rec.maximum("rls.max_dev_from_flow", dev)
                rec.gate("rls_agreement", dev <= FLOW_TOL)
                if edit[4] is not None:
                    live = edit[4]
                    rec.check_theta("oracle", theta, oracle_theta(self.hyper, live), FLOW_TOL)
        self._sweep_and_pdhg(rec, state, live)

    def _sweep_and_pdhg(self, rec, state, live):
        """The sweep and the PDHG solve, made once after the fit and once
        after the edit stream and filed under the same positions, so that
        their best is over two moments of every round."""
        rec.rewind("sweep", "pdhg")
        trace = engine.ParetoTrace()
        (swept, hyper), _ = rec.call(
            "sweep", engine.tune_gamma, state, self.hyper, self.hyper.gamma / 2.0,
            engine.IntegrationConfig(step_h=1e-2), trace,
        )
        with rec.untimed():
            rec.check_theta("oracle", engine.extract_solution(swept, hyper).theta_star,
                            oracle_theta(hyper, live), FLOW_TOL)
            check_pareto(rec, [t.data_fit for t in trace], [t.reg_norm for t in trace])

        result, _ = rec.call("pdhg", pdhg.pdhg_solve, self.n, self.prefix, self.spec,
                             self.pcfg, self.cfg, self.inner)
        with rec.untimed():
            rec.gate("pdhg_converged", result.converged)
            check_stationarity(rec, self.prefix, result.solution.theta_star,
                               self.spec.weights, PDHG_TOL)


class RetuneSweep(Workload):
    """retune-sweep: acceptance 06/07's reaction-diffusion instance
    (fourier-21, n=21, 15 rows plus two boundary rows, gamma=1, theta0=0.5).
    The set-up fits it block by block at h=1e-4, the acceptance 06 step: fit
    on the first block, then add_block for each further one, the same
    integration engine.fit runs, in calls short enough that each one's best
    over the set-ups catches a fast phase of the machine (fit_s, the sum of
    the 17 calls).  A round runs the chained decade gamma sweep 1 -> 1e-3 with the
    trace at h 1e-2/1e-3/1e-4 (sweep_s, the sum of its three calls); an
    untraced sweep back up to 1 at h=1e-3; and PDHG on the three KO
    equations with inner states built exactly in set-up.  Before the sweep,
    after the sweep back and after each PDHG solve (at gamma=1 each time) it
    runs 200
    shift_bias queries with seeded random biases and 100 exact Woodbury
    reweights of the boundary rows (1 <-> 10, the edits of this workload).

    Why: time goes to rk4_diag called once per traced step, to trace-point
    evaluation and to the per-call overhead of tiny O(n^2) operations; no
    rank-1 or dense integration is timed in the round.  The instance is fixed (the seed
    only draws the query biases and the reweight order), so the phase-join
    defect of the Pareto trace (ROADMAP item 5a) shows on every seed.
    """

    name = "retune-sweep"
    setups = 4  # about 4 s each
    n = 21
    decades = ((0.1, 1e-2), (0.01, 1e-3), (0.001, 1e-4))

    def setup(self, rec):
        queries, edits = (20, 8) if self.tiny else (200, 100)
        ko_grid, ko_h = (100, 1e-3) if self.tiny else (1000, 1e-4)
        prob = problems.gen_reaction_diffusion(15, seed=3, noise_scale=0.1, lambda_b=1.0)
        self.blocks = list(prob.blocks)
        self.hyper = Hyperparams(gamma=np.ones(self.n), theta0=np.full(self.n, 0.5))
        cfg = engine.IntegrationConfig(step_h=1e-4)
        state, _ = rec.call("fit", engine.fit, self.hyper, self.blocks[:1], cfg)
        for block in self.blocks[1:]:
            state, _ = rec.call("fit", engine.add_block, state, block, cfg)
        rec.check_theta("oracle", engine.extract_solution(state, self.hyper).theta_star,
                        oracle_theta(self.hyper, self.blocks), FLOW_TOL)
        self.start = state
        ko = problems.gen_ko(ko_grid, solver_h=ko_h, fd_h=1e-3)
        self.ko_equations = [list(eq) for eq in ko.equations]
        self.ko_inner = [exact_inner(10, eq, 0.5) for eq in self.ko_equations]
        self.spec = pdhg.ProxSpec(kind="weighted_l1", weights=np.full(10, 0.1))
        self.pcfg = pdhg.PdhgConfig(sigma_theta=0.5, sigma_w=0.5, tol=PDHG_TOL)

        rnd = random.Random(self.seed)
        self.biases = [np.array([rnd.uniform(-1.0, 1.0) for _ in range(self.n)])
                       for _ in range(queries)]
        # Boundary reweights 1 <-> 10 by exact Woodbury add/remove of the
        # weight difference.
        raised = [False, False]
        bounds = self.blocks[-2:]
        self.reweights = []
        for _ in range(edits):
            i = rnd.randrange(2)
            delta = DataBlock(phi=bounds[i].phi, y=bounds[i].y, lam=9.0)
            self.reweights.append((not raised[i], delta))
            raised[i] = not raised[i]
        self.reweighted = self.blocks[:-2] + [
            DataBlock(phi=b.phi, y=b.y, lam=10.0 if up else 1.0)
            for b, up in zip(bounds, raised)
        ]

    def run_round(self, rec):
        state, hyper = self.start, self.hyper
        self._queries_and_edits(rec, state, hyper, FLOW_TOL)
        trace = engine.ParetoTrace()
        for gamma, h in self.decades:
            (state, hyper), _ = rec.call(
                "sweep", engine.tune_gamma, state, hyper, np.full(self.n, gamma),
                engine.IntegrationConfig(step_h=h), trace,
            )
            with rec.untimed():
                rec.check_theta("oracle", engine.extract_solution(state, hyper).theta_star,
                                oracle_theta(hyper, self.blocks), DECADE_SWEEP_TOL)
        with rec.untimed():
            check_pareto(rec, [t.data_fit for t in trace], [t.reg_norm for t in trace])

        (state, hyper), _ = rec.call(
            None, engine.tune_gamma, state, hyper, self.hyper.gamma,
            engine.IntegrationConfig(step_h=1e-3),
        )
        with rec.untimed():
            rec.check_theta("oracle", engine.extract_solution(state, hyper).theta_star,
                            oracle_theta(hyper, self.blocks), DECADE_SWEEP_TOL)

        self._queries_and_edits(rec, state, hyper, DECADE_SWEEP_TOL)

        cfg = engine.IntegrationConfig(step_h=1e-3)
        for eq, inner in zip(self.ko_equations, self.ko_inner):
            result, _ = rec.call("pdhg", pdhg.pdhg_solve, 10, eq, self.spec, self.pcfg,
                                 cfg, inner)
            with rec.untimed():
                rec.gate("pdhg_converged", result.converged)
                check_stationarity(rec, eq, result.solution.theta_star,
                                   self.spec.weights, PDHG_TOL)
            self._queries_and_edits(rec, state, hyper, DECADE_SWEEP_TOL)

    def _queries_and_edits(self, rec, state, hyper, tol):
        """One pass of the queries and edits.  A round makes five passes,
        between its longer calls, and files every pass under the same
        positions, so that each query's and edit's best is over five moments
        of every round."""
        rec.rewind("query", "update")
        for k, bias in enumerate(self.biases):
            sol = rec.repeated("query", engine.shift_bias, state, hyper, bias)
            if k % 50 == 0:
                with rec.untimed():
                    rec.check_theta("oracle", sol.theta_star,
                                    oracle_theta(hyper.with_theta0(bias), self.blocks), tol)

        exact = rls.RlsState(p=state.p, q=state.q)
        for up, delta in self.reweights:
            op = rls.rls_add if up else rls.rls_remove
            exact = rec.repeated("update", op, exact, delta)
        with rec.untimed():
            rec.check_theta("oracle", exact.theta_star(hyper),
                            oracle_theta(hyper, self.reweighted), tol)


class CliSession(Workload):
    """cli-session: in-process calls to ricreg.cli.main(argv) on files in a
    work directory.  Set-up runs ``gen sin10x`` (2000 blocks) and, for PDHG,
    ``gen reaction-diffusion`` (acceptance 06's fixed 17-block instance) with
    an exact ``fit --method rls --gamma 2`` as the inner checkpoint.
    A round runs ``fit --method rls --gamma 100`` on the 2000-block file and
    100 edits (``add`` / ``tune --lambda-block`` 1 <-> 2 / ``remove`` of
    one-block files) at h=1e-2, each followed by a query (three
    ``shift-bias`` to one ``eval`` against the truth CSV, so that p50 and p90
    each fall inside one kind).  After the fit and again after the edits it
    runs one ``tune --gamma 10 --step-size 0.1 --trace`` of a copy of the
    fitted checkpoint and one ``pdhg --checkpoint``.

    Why: every call parses argv and reads and writes JSON checkpoints or
    JSON-Lines files, so model IO and the CLI front end dominate; atomic
    checkpoints or opt-in diagnostics would show here and nowhere else.
    """

    name = "cli-session"
    n = 10

    def setup(self, rec):
        count, edits = 2000, (8 if self.tiny else 100)
        self.close()
        self.dir = os.path.join(self.workdir, f"{self.name}-{os.getpid()}")
        os.makedirs(self.dir)
        self.data = self._path("data.jsonl")
        self.truth = self.data + ".truth.csv"
        self.ck = self._path("ck.json")
        self.fitted = self._path("fitted.json")
        self.inner = self._path("inner.json")
        self._cli_setup(rec, ["gen", "sin10x", "--count", str(count), "--seed",
                              str(DATA_SEED), "--out", self.data])
        self.lasso_data = self._path("rd.jsonl")
        self._cli_setup(rec, ["gen", "reaction-diffusion", "--count", "15", "--seed", "3",
                              "--out", self.lasso_data])
        self._cli_setup(rec, ["fit", self.lasso_data, "--gamma", "2", "--method", "rls",
                              "--out", self.inner])
        self.lasso = list(problems.gen_reaction_diffusion(15, seed=3).blocks)
        prob = problems.gen_sin10x(count, DATA_SEED)
        self.blocks = list(prob.blocks)
        grid = np.linspace(0.0, 10.0, 1001)
        self.eval_features = feature_matrix(get_basis("poly-trig-10"), grid)
        self.eval_truth = prob.truth["y"](grid)
        self.hyper = Hyperparams(gamma=np.full(self.n, 100.0), theta0=np.zeros(self.n))

        pool = problems.gen_sin10x(edits, DATA_SEED + 1).blocks
        rnd = random.Random(self.seed)
        self.plan = []
        for k, (kind, block, new, _, snapshot) in enumerate(
            edit_plan(rnd, self.blocks, pool, edits, ("add", "tune", "remove"), 2.0, 10)
        ):
            path = self._path(f"edit{k}.jsonl")
            write_blocks([block], path)
            if kind == "tune":
                argv = ["tune", "--checkpoint", self.ck, "--lambda-block", path,
                        "--lambda", repr(block.lam), repr(new.lam)]
            else:
                argv = [kind, "--checkpoint", self.ck, path]
            argv += ["--step-size", "1e-2", "--out", self.ck]
            self.plan.append((argv, snapshot))
        self.queries = []
        for k in range(edits):
            if k % 4 != 3:
                bias = round(rnd.uniform(-1.0, 1.0), 6)
                self.queries.append((["shift-bias", "--checkpoint", self.ck, "--theta0",
                                      repr(bias), "--out", self._path("sb.json")], bias))
            else:
                self.queries.append((["eval", "--checkpoint", self.ck, "--basis",
                                      "poly-trig-10", "--grid", "0,10,1001", "--truth",
                                      self.truth, "--truth-column", "y"], None))
        self.l1_weight = 0.1

    def _path(self, name):
        return os.path.join(self.dir, name)

    @staticmethod
    def _main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _cli(self, rec, kind, argv):
        (code, out, err), _ = rec.call(kind, self._main, argv)
        if code != 0:
            rec.raised += 1
            print(f"cli {argv[0]} exited {code}: {err.strip()}", file=sys.stderr)
            raise RoundAborted(argv[0])
        return json.loads(out)

    def _cli_setup(self, rec, argv):
        code, _, err = self._main(argv)
        if code != 0:
            raise RuntimeError(f"set-up call {argv[0]} exited {code}: {err.strip()}")

    def run_round(self, rec):
        payload = self._cli(rec, "fit", ["fit", self.data, "--gamma", "100", "--method",
                                         "rls", "--out", self.ck])
        with rec.untimed():
            rec.check_theta("oracle", payload["theta_star"],
                            oracle_theta(self.hyper, self.blocks), FLOW_TOL)
            shutil.copyfile(self.ck, self.fitted)
        self._sweep_and_pdhg(rec)

        live = self.blocks
        for (argv, snapshot), (query, bias) in zip(self.plan, self.queries):
            payload = self._cli(rec, "update", argv)
            answer = self._cli(rec, "query", query)
            if snapshot is None:
                continue
            live = snapshot
            with rec.untimed():
                reference = oracle_theta(self.hyper, live)
                rec.check_theta("oracle", payload["theta_star"], reference, FLOW_TOL)
                if bias is None:
                    expected = problems.relative_l2(self.eval_features @ reference,
                                                    self.eval_truth)
                    rec.gate("eval_matches_oracle",
                             abs(answer["relative_l2"] - expected) <= FLOW_TOL * expected)
                else:
                    hyper = self.hyper.with_theta0(np.full(self.n, bias))
                    rec.check_theta("oracle", answer["theta_star"],
                                    oracle_theta(hyper, live), FLOW_TOL)
        self._sweep_and_pdhg(rec)

    def _sweep_and_pdhg(self, rec):
        """The traced tune of the fitted checkpoint and the PDHG solve, made
        once after the fit and once after the edits and filed under the same
        positions, so that their best is over two moments of every round."""
        rec.rewind("sweep", "pdhg")
        trace_csv = self._path("trace.csv")
        payload = self._cli(rec, "sweep", [
            "tune", "--checkpoint", self.fitted, "--gamma", "10", "--step-size", "0.1",
            "--trace", trace_csv, "--out", self._path("swept.json"),
        ])
        with rec.untimed():
            hyper = Hyperparams(gamma=np.full(self.n, 10.0), theta0=np.zeros(self.n))
            rec.check_theta("oracle", payload["theta_star"],
                            oracle_theta(hyper, self.blocks), FLOW_TOL)
            columns = np.loadtxt(trace_csv, delimiter=",", skiprows=1, ndmin=2)
            check_pareto(rec, columns[:, 1], columns[:, 2])

        payload = self._cli(rec, "pdhg", [
            "pdhg", self.lasso_data, "--checkpoint", self.inner, "--reg-weight",
            repr(self.l1_weight), "--out", self._path("pdhg.json"),
        ])
        with rec.untimed():
            rec.gate("pdhg_converged", bool(payload["converged"]))
            theta = np.array(payload["theta_star"])
            check_stationarity(rec, self.lasso, theta,
                               np.full(theta.shape[0], self.l1_weight), PDHG_TOL)

    def close(self):
        if getattr(self, "dir", None):
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


WORKLOADS = {w.name: w for w in (EditDense, RetuneSweep, CliSession)}
