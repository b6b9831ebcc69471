"""Command-line front end.

Subcommands: gen, fit, add, remove, tune, shift-bias, pdhg, eval, bench.
Machine-readable JSON goes to stdout (indented with --pretty); any run that
writes a checkpoint echoes its path and the current minimizer.  Exit codes:
0 success, 1 usage/input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys

import numpy as np

from . import engine, pdhg, problems
from .bases import basis_names, feature_matrix, get_basis
from .bench import bench_incremental
from .model import (
    CHECKPOINT_VERSION,
    Checkpoint,
    DataBlock,
    Hyperparams,
    NumericsError,
    RiccatiState,
    _check_evaluation_point,
    _finite,
    data_fit_value,
    read_blocks,
    read_checkpoint,
    weighted_rows,
    write_blocks,
    write_checkpoint,
)
from .oracle import normal_system, spd_cholesky
from .rls import rls_fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(payload: dict, pretty: bool) -> None:
    print(json.dumps(payload, indent=2 if pretty else None))


def _parse_vector(text: str, n: int | None, flag: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise _UsageError(f"{flag}: expected a number or comma-separated numbers")
    if len(values) > 1:
        return np.array(values)
    if n is None:
        raise _UsageError(
            f"{flag}: cannot broadcast a single value without a known dimension; "
            "pass a comma-separated vector"
        )
    return np.full(n, values[0])


def _infer_n(blocks, vectors: dict[str, str]) -> int:
    # The first block's dimension, else the length of the first of the
    # ``vectors`` (flag -> text) that is comma-separated.
    if blocks:
        return blocks[0].n
    for text in vectors.values():
        if "," in text:
            return len(text.split(","))
    first, *rest = vectors
    raise _UsageError(
        "cannot infer the model dimension from an empty data file; "
        f"pass {first}{''.join(f' (or {flag})' for flag in rest)} as a comma-separated vector"
    )


def _state_metadata(args, extra: dict | None = None) -> dict:
    meta = {"step_size": repr(args.step_size)} if hasattr(args, "step_size") else {}
    if extra:
        meta.update(extra)
    return meta


def _solution_payload(ck_path, solution) -> dict:
    payload = {
        "checkpoint": str(ck_path),
        "theta_star": [float(v) for v in solution.theta_star],
    }
    for key in ("data_fit", "reg_value", "total_loss"):
        value = getattr(solution, key)
        if value is not None:
            payload[key] = value
    return payload


def _exact_state(hyper: Hyperparams, blocks, stream) -> RiccatiState:
    """Closed-form flow state (P, q, r) from the normal equations; ``stream``
    is ``blocks`` as one unit-weight block (see ``cmd_fit``).  P = L^-T L^-1
    from the one Cholesky factor L of the normal matrix, which raises
    ``NumericsError`` when that matrix is numerically not SPD.  r = S(0) is minus
    the minimal loss at theta0 = 0, at its minimizer q: two terms of one sign."""
    _check_evaluation_point(hyper)
    a, rhs = normal_system(hyper, stream)
    lower_inv = np.linalg.solve(spd_cholesky(a), np.eye(hyper.n))
    p = lower_inv.T @ lower_inv
    p = 0.5 * (p + p.T)
    q = p @ (rhs - hyper.evaluation_point())
    r = -(data_fit_value(q, stream) + 0.5 * float(hyper.gamma.dot(q * q)))
    return RiccatiState(p=p, q=q, r=r, elapsed=float(sum(b.lam for b in blocks)))


# -- gen ----------------------------------------------------------------------


# Per problem: the generator call, the flags the manifest records (in this
# order), the block streams as {path: blocks} and the truth columns on the
# evaluation grid.  The lambdas look the generators up at call time.
_GEN_PROBLEMS = {
    "sin10x": (
        lambda a: problems.gen_sin10x(a.count, a.seed, a.noise),
        ("seed", "count", "noise"),
        lambda prob, out: {out: prob.blocks},
        lambda prob, grid: {"y": prob.truth["y"](grid)},
    ),
    "reaction-diffusion": (
        lambda a: problems.gen_reaction_diffusion(a.count, a.seed, a.noise, a.lambda_b),
        ("seed", "count", "noise", "lambda_b"),
        lambda prob, out: {out: prob.blocks},
        lambda prob, grid: {"u": prob.truth["u"](grid), "f": prob.truth["f"](grid)},
    ),
    "ko": (
        lambda a: problems.gen_ko(a.grid_count, a.solver_h, a.fd_h),
        ("grid_count", "solver_h", "fd_h"),
        lambda prob, out: {f"{out}.eq{i}.jsonl": eq for i, eq in enumerate(prob.equations, 1)},
        lambda prob, grid: {f"x{i + 1}": col for i, col in enumerate(prob.trajectory_on(grid).T)},
    ),
}


def cmd_gen(args) -> int:
    generate, fields, streams_of, truth_of = _GEN_PROBLEMS[args.problem]
    prob = generate(args)
    out = str(args.out)
    streams = streams_of(prob, out)
    for path, blocks in streams.items():
        write_blocks(blocks, path)
    paths = list(streams)
    blocks_field = paths if len(paths) > 1 else paths[0]
    grid = prob.eval_grid
    truth_columns = truth_of(prob, grid)
    truth_path = f"{out}.truth.csv"
    with open(truth_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"] + list(truth_columns))
        # csv writes every float as its repr.
        writer.writerows(np.column_stack((grid, *truth_columns.values())).tolist())
    manifest_path = f"{out}.manifest.json"
    manifest = {"problem": args.problem, **{k: getattr(args, k) for k in fields},
                "basis": prob.basis_name, "blocks": blocks_field, "truth_csv": truth_path}
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
    _emit(
        {"blocks": blocks_field, "manifest": manifest_path, "truth_csv": truth_path,
         "count": len(streams[paths[0]]), "basis": prob.basis_name,
         **({"seed": args.seed} if "seed" in fields else {})},
        args.pretty,
    )
    return EXIT_OK


# -- fit ----------------------------------------------------------------------


def cmd_fit(args) -> int:
    blocks = read_blocks(args.data)
    n = _infer_n(blocks, {"--gamma": args.gamma, "--theta0": args.theta0})
    hyper = Hyperparams(
        gamma=_parse_vector(args.gamma, n, "--gamma"),
        theta0=_parse_vector(args.theta0, n, "--theta0"),
    )
    cfg = engine.IntegrationConfig(step_h=args.step_size)
    # Stack the sqrt(lam)-scaled rows once.  As one unit-weight block they
    # have the data fit and the normal system of the whole stream, bit for bit.
    rows = weighted_rows(blocks, n)
    stream = [DataBlock(*rows)] if len(rows[1]) else []
    if args.method == "riccati":
        state = engine.fit(hyper, blocks, cfg)
    elif args.method == "rls":
        state = rls_fit(hyper, blocks, rows)
    else:  # lsq
        state = _exact_state(hyper, blocks, stream)
    # The solution comes before the first write: a run that fails writes nothing.
    solution = engine.extract_solution(state, hyper, stream)
    ck = Checkpoint(
        version=CHECKPOINT_VERSION,
        n=n,
        hyperparams=hyper,
        state=state,
        metadata=_state_metadata(args, {"method": args.method}),
    )
    write_checkpoint(ck, args.out)
    _emit({**_solution_payload(args.out, solution), "method": args.method}, args.pretty)
    return EXIT_OK


# -- add / remove ---------------------------------------------------------------


def _cmd_edit(args, forward: bool) -> int:
    ck = read_checkpoint(args.checkpoint)
    blocks = read_blocks(args.data)
    cfg = engine.IntegrationConfig(step_h=args.step_size)
    state = ck.state
    op = engine.add_block if forward else engine.remove_block
    for block in blocks:
        state = op(state, block, cfg)
    solution = engine.extract_solution(state, ck.hyperparams)
    write_checkpoint(ck.with_state(state), args.out)
    _emit(
        {**_solution_payload(args.out, solution), "blocks_processed": len(blocks)},
        args.pretty,
    )
    return EXIT_OK


def cmd_add(args) -> int:
    return _cmd_edit(args, forward=True)


def cmd_remove(args) -> int:
    return _cmd_edit(args, forward=False)


# -- tune -----------------------------------------------------------------------


def cmd_tune(args) -> int:
    ck = read_checkpoint(args.checkpoint)
    cfg = engine.IntegrationConfig(step_h=args.step_size)
    if (args.gamma is None) == (args.lambda_block is None):
        raise _UsageError("pass exactly one of --gamma or --lambda-block/--lambda")
    if args.trace and args.gamma is None:
        raise _UsageError("--trace only applies to --gamma sweeps")
    if args.gamma is not None:
        new_gamma = _parse_vector(args.gamma, ck.n, "--gamma")
        trace = engine.ParetoTrace() if args.trace else None
        state, hyper = engine.tune_gamma(ck.state, ck.hyperparams, new_gamma, cfg, trace)
        new_ck = ck.with_state(state).with_hyperparams(hyper)
        extra = {"trace": args.trace} if args.trace else {}
    else:
        if args.lam is None:
            raise _UsageError("--lambda-block requires --lambda OLD NEW")
        old_lam, new_lam = args.lam
        blocks = read_blocks(args.lambda_block)
        state = ck.state
        for block in blocks:
            state = engine.tune_lambda(state, block, old_lam, new_lam, cfg)
        new_ck = ck.with_state(state)
        extra = {"blocks_retuned": len(blocks), "lambda": [old_lam, new_lam]}
    solution = engine.extract_solution(new_ck.state, new_ck.hyperparams)
    if args.trace:
        trace.write_csv(args.trace)
    write_checkpoint(new_ck, args.out)
    _emit({**_solution_payload(args.out, solution), **extra}, args.pretty)
    return EXIT_OK


# -- shift-bias -------------------------------------------------------------------


def cmd_shift_bias(args) -> int:
    ck = read_checkpoint(args.checkpoint)
    new_theta0 = _parse_vector(args.theta0, ck.n, "--theta0")
    solution = engine.shift_bias(ck.state, ck.hyperparams, new_theta0)
    new_ck = ck.with_hyperparams(ck.hyperparams.with_theta0(new_theta0))
    write_checkpoint(new_ck, args.out)
    _emit(_solution_payload(args.out, solution), args.pretty)
    return EXIT_OK


# -- pdhg -------------------------------------------------------------------------


def cmd_pdhg(args) -> int:
    blocks = read_blocks(args.data)
    n = _infer_n(blocks, {"--reg-weight": args.reg_weight})
    spec = pdhg.ProxSpec(
        kind="weighted_l1" if args.reg == "l1" else "weighted_l2_squared",
        weights=_parse_vector(args.reg_weight, n, "--reg-weight"),
    )
    cfg = pdhg.PdhgConfig(
        sigma_theta=args.sigma_theta,
        sigma_w=args.sigma_w,
        max_iters=args.max_iters,
        tol=args.tol,
    )
    riccati_cfg = engine.IntegrationConfig(step_h=args.step_size)
    inner_state = None
    if args.checkpoint:
        inner_ck = read_checkpoint(args.checkpoint)
        expected = 1.0 / args.sigma_theta
        if inner_ck.n != n or not np.allclose(
            inner_ck.hyperparams.gamma, expected, rtol=1e-12, atol=0.0
        ):
            raise _UsageError(
                "checkpoint is not a reusable inner state for these step sizes "
                f"(need uniform gamma = {expected!r})"
            )
        inner_state = inner_ck.state
    try:
        result = pdhg.pdhg_solve(n, blocks, spec, cfg, riccati_cfg, inner_state)
    except NumericsError as exc:
        if inner_state is not None:
            raise
        # Without a checkpoint the only integration is the inner ridge fit.
        gamma = 1.0 / args.sigma_theta
        raise NumericsError(
            f"the inner ridge fit at gamma = 1/sigma_theta = {gamma!r} failed: {exc}, "
            f"or fit the inner state exactly with `ricreg fit {args.data} --method rls "
            f"--gamma {gamma!r} --out INNER.json` and pass --checkpoint INNER.json"
        ) from exc
    payload = {
        "theta_star": [float(v) for v in result.solution.theta_star],
        "sparsity_pattern": [
            float(v) for v in pdhg.sparsity_pattern(result.solution.theta_star)
        ],
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
        "data_fit": result.solution.data_fit,
        "reg_value": result.solution.reg_value,
        "total_loss": result.solution.total_loss,
    }
    if args.out:
        ck = Checkpoint(
            version=CHECKPOINT_VERSION,
            n=n,
            hyperparams=pdhg.inner_hyperparams(n, args.sigma_theta),
            state=result.inner_state,
            metadata=_state_metadata(
                args, {"kind": "pdhg-inner", "reg": args.reg, "converged": str(result.converged)}
            ),
        )
        write_checkpoint(ck, args.out)
        payload["checkpoint"] = str(args.out)
    _emit(payload, args.pretty)
    return EXIT_OK if result.converged else EXIT_NUMERICAL


# -- eval -------------------------------------------------------------------------


def _blank(row: list) -> bool:
    """A CSV row of a blank line: no field, or one field of whitespace."""
    return not row or (len(row) == 1 and not row[0].strip())


def _truth_column(path, first: list, column: str | None) -> tuple[int, bool]:
    """The index of the column to read, and whether ``first`` is a header."""
    try:
        [float(v) for v in first]
    except ValueError:  # a header row
        if column is not None and column not in first:
            raise ValueError(f"{path}: no column {column!r} in {first}")
        return (len(first) - 1 if column is None else first.index(column)), True
    return len(first) - 1, False


def _read_truth_csv(path, column: str | None) -> np.ndarray:
    """One column of a truth CSV, read in one bulk pass; blank lines are skipped.

    A first row that parses as numbers is data (the file has no header) and
    its last column is read; otherwise it is the header, and ``column`` (by
    default the last one) is read.  The lines split at CRLF, CR and LF, as
    csv splits them, and ``np.loadtxt`` parses the column with the routine
    ``float`` uses.  Text with a quote or a NUL, and any file that pass
    cannot take whole, goes through a ``csv.reader`` loop over the same text
    instead: it accepts what ``float`` accepts, and raises ``ValueError``
    naming the file and line for a short row or a value that is not finite.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    # csv before Python 3.11 refuses a NUL, so a NUL also goes to the row loop
    lines = [] if '"' in text or "\0" in text else list(
        filter(str.strip, text.replace("\r", "\n").split("\n")))
    # csv's limit is per field: a longer line goes to the row loop
    if lines and max(map(len, lines)) <= csv.field_size_limit():
        idx, header = _truth_column(path, lines[0].split(","), column)
        try:
            values = np.loadtxt(lines[header:], delimiter=",", usecols=idx, comments=None,
                                ndmin=1) if len(lines) > header else None
        except ValueError:  # a short row or a value loadtxt cannot parse
            values = None
        if values is not None and _finite(values):
            return values
    reader = csv.reader(io.StringIO(text, newline=""))
    first = next((row for row in reader if not _blank(row)), None)
    if first is None:
        raise ValueError(f"{path}: empty truth file")
    idx, header = _truth_column(path, first, column)
    values = []
    for row in reader if header else itertools.chain([first], reader):
        try:
            value = float(row[idx])
        except (IndexError, ValueError):
            if _blank(row):
                continue
            if len(row) <= idx:
                raise ValueError(
                    f"{path}:{reader.line_num}: short row: expected at least "
                    f"{idx + 1} columns, got {len(row)}"
                ) from None
            raise ValueError(f"{path}:{reader.line_num}: not a number: {row[idx]!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}:{reader.line_num}: not a finite number: {row[idx]!r}")
        values.append(value)
    return np.array(values)


def cmd_eval(args) -> int:
    ck = read_checkpoint(args.checkpoint)
    basis = get_basis(args.basis)
    if basis.n != ck.n:
        raise _UsageError(f"basis {args.basis} has n={basis.n}, checkpoint has n={ck.n}")
    try:
        lo, hi, count = args.grid.split(",")
        grid = np.linspace(float(lo), float(hi), int(count))
    except ValueError:
        raise _UsageError("--grid must be LO,HI,COUNT")
    theta = engine.extract_solution(ck.state, ck.hyperparams).theta_star
    values = feature_matrix(basis, grid) @ theta
    reference = _read_truth_csv(args.truth, args.truth_column)
    if reference.shape != values.shape:
        raise _UsageError(
            f"truth has {reference.shape[0]} rows, grid has {values.shape[0]} points"
        )
    _emit(
        {
            "relative_l2": problems.relative_l2(values, reference),
            "grid": [float(lo), float(hi), int(count)],
            "basis": args.basis,
        },
        args.pretty,
    )
    return EXIT_OK


# -- bench ------------------------------------------------------------------------


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = []
    for method in args.method.split(","):
        report = bench_incremental(
            n=args.n, m=args.m, sizes=sizes, method=method.strip(),
            h=args.step_size, seed=args.seed,
        )
        for size, secs in report.samples:
            rows.append({
                "method": report.method, "N": size, "n": report.n,
                "m": report.m, "seconds_per_update": secs,
            })
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            # csv writes every float as its repr.
            writer = csv.DictWriter(fh, ["method", "N", "n", "m", "seconds_per_update"])
            writer.writeheader()
            writer.writerows(rows)
    _emit({"rows": rows, "out": args.out}, args.pretty)
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The ``ricreg`` parser, built on first use and then reused: ``parse_args``
    returns a fresh namespace and leaves the parser unchanged."""
    parser = _Parser(prog="ricreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, out=True, step=True, seed=False):
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="PRNG seed (u64)")
        if step:
            p.add_argument("--step-size", type=float, default=1e-3,
                           help="RK4 step size h")
        if checkpoint:
            p.add_argument("--checkpoint", required=checkpoint == "required",
                           default=None, help="input checkpoint path")
        if out:
            p.add_argument("--out", required=out == "required", default=None,
                           help="output path")
        return p

    p = sub.add_parser("gen", help="generate a benchmark dataset")
    gsub = p.add_subparsers(dest="problem", required=True)
    g = common(gsub.add_parser("sin10x"), out="required", step=False, seed=True)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--noise", type=float, default=1.0)
    g.set_defaults(func=cmd_gen)
    g = common(gsub.add_parser("reaction-diffusion"), out="required", step=False,
               seed=True)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--noise", type=float, default=0.1)
    g.add_argument("--lambda-b", type=float, default=1.0)
    g.set_defaults(func=cmd_gen)
    g = common(gsub.add_parser("ko"), out="required", step=False)
    g.add_argument("--grid-count", type=int, default=1000)
    g.add_argument("--solver-h", type=float, default=1e-4)
    g.add_argument("--fd-h", type=float, default=1e-3)
    g.set_defaults(func=cmd_gen)

    p = common(sub.add_parser("fit", help="fit a model to a block stream"),
               out="required")
    p.add_argument("data", help="JSON-Lines block stream")
    p.add_argument("--gamma", required=True,
                   help="regularization weights (value or comma list)")
    p.add_argument("--theta0", default="0", help="prior bias (value or comma list)")
    p.add_argument("--method", choices=("riccati", "rls", "lsq"), default="riccati")
    p.set_defaults(func=cmd_fit)

    p = common(sub.add_parser("add", help="incorporate blocks into a checkpoint"),
               checkpoint="required", out="required")
    p.add_argument("data")
    p.set_defaults(func=cmd_add)

    p = common(sub.add_parser("remove", help="remove previously added blocks"),
               checkpoint="required", out="required")
    p.add_argument("data")
    p.set_defaults(func=cmd_remove)

    p = common(sub.add_parser("tune", help="retune data or regularization weights"),
               checkpoint="required", out="required")
    p.add_argument("--gamma", default=None,
                   help="new regularization weights (value or comma list)")
    p.add_argument("--lambda-block", default=None,
                   help="block stream whose weight changes")
    p.add_argument("--lambda", dest="lam", nargs=2, type=float, default=None,
                   metavar=("OLD", "NEW"))
    p.add_argument("--trace", default=None, help="write the sweep trace CSV here")
    p.set_defaults(func=cmd_tune)

    p = common(sub.add_parser("shift-bias", help="move the prior bias"),
               checkpoint="required", out="required", step=False)
    p.add_argument("--theta0", required=True, help="new bias (value or comma list)")
    p.set_defaults(func=cmd_shift_bias)

    p = common(sub.add_parser("pdhg", help="solve with a non-quadratic regularizer"),
               checkpoint=True, out=True)
    p.add_argument("data")
    p.add_argument("--reg", choices=("l1", "l2"), default="l1")
    p.add_argument("--reg-weight", required=True,
                   help="regularizer weights (value or comma list)")
    p.add_argument("--sigma-theta", type=float, default=0.5)
    p.add_argument("--sigma-w", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=100000)
    p.set_defaults(func=cmd_pdhg)

    p = common(sub.add_parser("eval", help="evaluate a checkpoint against truth"),
               checkpoint="required", out=False, step=False)
    p.add_argument("--basis", required=True, choices=basis_names())
    p.add_argument("--grid", required=True, help="LO,HI,COUNT")
    p.add_argument("--truth", required=True, help="truth CSV")
    p.add_argument("--truth-column", default=None)
    p.set_defaults(func=cmd_eval)

    p = common(sub.add_parser("bench", help="per-update timing across dataset sizes"),
               seed=True)
    p.add_argument("--method", default="riccati,rls,lsq",
                   help="comma list of riccati|rls|lsq")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--sizes", default="100,10000")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # The library refuses every non-finite result with its own message,
        # so NumPy's overflow warnings on the way would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericsError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
