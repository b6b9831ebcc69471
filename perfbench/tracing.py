"""Spans at the layer boundaries of ricreg, recorded from outside the package.

Each wrapper replaces one public function under the name its caller looks it
up by (``ricreg._kernels.rk4_dense`` for the engine,
``ricreg.cli.write_checkpoint`` for the CLI, ...) and records one span per
call: name, start, end, parent span and operation id.  Spans stay in memory
and are dumped when the run ends; self time and the per-layer metrics are
derived from the dump by :func:`layer_metrics`.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import time

# Span record: (name, start_ns, end_ns, parent index or -1, op id, extra dict).
NAME, START, END, PARENT, OP, EXTRA = range(6)

KERNEL_PATHS = ("rank1", "dense", "diag")
ENGINE_OPS = (
    "fit", "add_block", "remove_block", "tune_lambda", "tune_gamma",
    "shift_bias", "extract_solution",
)
CLI_COMMANDS = ("gen", "fit", "add", "remove", "tune", "shift-bias", "pdhg", "eval")
GENERATORS = (
    "problems.gen_sin10x", "problems.gen_reaction_diffusion", "problems.gen_ko",
    "rng.gaussian_blocks",
)


class Tracer:
    """In-memory span recorder plus named counters set by the benchmark."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.op_id = -1

    @contextlib.contextmanager
    def span(self, name: str, extra: dict | None = None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, parent, self.op_id, extra or {}]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record[EXTRA]
        finally:
            self._stack.pop()
            record[END] = time.perf_counter_ns()

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def dump(self, path, **header) -> None:
        """Write every span and counter as gzipped JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {**header, "fields": ["name", "start_ns", "end_ns", "parent", "op", "extra"],
                 "spans": self.spans, "counters": self.counters},
                fh,
            )


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        extra = before(*args, **kwargs) if before else {}
        with tracer.span(extra.pop("_name", name), extra) as ex:
            result = fn(*args, **kwargs)
            if after:
                after(ex, result, *args, **kwargs)
        return result

    return traced


def _kernel_dense_info(p, q, r, phi, y, h, nsteps, *rest):
    m, n = phi.shape
    path = "rank1" if m == 1 else "dense"
    return {"_name": f"kernels.{path}", "n": n, "m": m, "steps": int(nsteps)}


def _kernel_diag_info(p, q, r, d, h, nsteps, *rest):
    return {"n": int(d.shape[0]), "m": 0, "steps": int(nsteps)}


def _kernel_ko_info(x0, h, nsteps):
    return {"steps": int(nsteps)}


def _cli_info(argv=None):
    sub = argv[0] if argv else "?"
    return {"_name": f"cli.main.{sub}"}


def _pdhg_after(extra, result, *args, **kwargs):
    extra["iterations"] = result.iterations
    extra["converged"] = bool(result.converged)


def _write_ck_after(extra, result, ck, path):
    extra["bytes"] = os.path.getsize(path)


def _read_blocks_after(extra, result, path):
    extra["blocks"] = len(result)


def _patch_table(ricreg):
    """(module, attribute, span name, before, after) for every wrapped call site."""
    k, e, c = ricreg._kernels, ricreg.engine, ricreg.cli
    table = [
        (k, "rk4_dense", "kernels.dense", _kernel_dense_info, None),
        (k, "rk4_diag", "kernels.diag", _kernel_diag_info, None),
        (k, "integrate_ko", "kernels.ko", _kernel_ko_info, None),
        (ricreg.pdhg, "pdhg_solve", "pdhg.pdhg_solve", None, _pdhg_after),
        (ricreg.pdhg, "prox_dual", "pdhg.prox_dual", None, None),
        (ricreg.rls, "rls_add", "rls.rls_add", None, None),
        (ricreg.rls, "rls_remove", "rls.rls_remove", None, None),
        (ricreg.rls, "rls_fit", "rls.rls_fit", None, None),
        (c, "rls_fit", "rls.rls_fit", None, None),
        (ricreg.oracle, "solve_direct", "oracle.solve_direct", None, None),
        (c, "normal_system", "oracle.normal_system", None, None),
        (c, "read_checkpoint", "model.read_checkpoint", None, None),
        (c, "write_checkpoint", "model.write_checkpoint", None, _write_ck_after),
        (c, "read_blocks", "model.read_blocks", None, _read_blocks_after),
        (c, "write_blocks", "model.write_blocks", None, None),
        (c, "main", "cli.main", _cli_info, None),
    ]
    table += [(e, op, f"engine.{op}", None, None) for op in ENGINE_OPS]
    table += [
        (ricreg.problems, g.split(".")[1], g, None, None)
        for g in GENERATORS if g.startswith("problems.")
    ]
    return table


@contextlib.contextmanager
def installed(tracer: Tracer, ricreg):
    """Replace every traced call site with its wrapper; restore on exit."""
    saved = []
    try:
        for module, attr, name, before, after in _patch_table(ricreg):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, before, after))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- computed operation and byte counts per RK4 step ---------------------------
#
# Counts follow the algorithm of the reference step in ricreg._kernels, one
# multiply-add = 2 flops, 8 bytes per double, each array operand read or
# written once per operation.  They are computed from (n, m), not measured:
# cache misses and NumPy temporaries are not in them.


def flops_per_step(path: str, n: int, m: int) -> float:
    if path == "rank1":
        # u = P^T phi, P -= w u u^T, plus dot products and q update.
        return 4 * n * n + 7 * n + 40
    if path == "dense":
        # 4 stages of W = phi P, -W^T W, v = phi q - y, -W^T v; stage inputs,
        # the weighted combination and the symmetrization.
        return 16 * m * n * n + 16 * m * n + 12 * m + 16 * n * n + 14 * n
    if path == "diag":
        # 4 stages of P^T diag(d) P and P^T (d * q); same combinations.
        return 8 * n**3 + 28 * n * n + 30 * n
    raise ValueError(path)


def bytes_per_step(path: str, n: int, m: int) -> float:
    if path == "rank1":
        return 8 * (3 * n * n + 6 * n)
    if path == "dense":
        return 8 * (25 * n * n + 4 * m * n + 20 * n)
    if path == "diag":
        return 8 * (33 * n * n + 20 * n)
    raise ValueError(path)


# -- derivation of the per-layer metrics from a span dump -----------------------

LAYER_UNITS: dict[str, str] = {}
for _path in KERNEL_PATHS:
    LAYER_UNITS.update({
        f"kernels.{_path}.steps": "count",
        f"kernels.{_path}.calls": "count",
        f"kernels.{_path}.steps_per_call": "count",
        f"kernels.{_path}.ns_per_step": "ns",
        f"kernels.{_path}.flops_per_step": "flop",
        f"kernels.{_path}.bytes_per_step": "B",
        f"kernels.{_path}.gflops": "Gflop/s",
    })
LAYER_UNITS.update({"kernels.ko.steps": "count", "kernels.ko.ns_per_step": "ns"})
for _op in ENGINE_OPS:
    LAYER_UNITS.update({f"engine.{_op}.calls": "count", f"engine.{_op}.self_s": "s"})
LAYER_UNITS.update({
    "engine.trace.points": "count",
    "engine.trace.violations": "count",
    "rls.rls_add.us_per_call": "us",
    "rls.rls_remove.us_per_call": "us",
    "rls.max_dev_from_flow": "ratio",
    "oracle.solve_direct.calls": "count",
    "oracle.solve_direct.ms_per_call": "ms",
    "pdhg.iterations": "count",
    "pdhg.us_per_iter": "us",
    "pdhg.prox_dual.calls": "count",
    "pdhg.converged_ratio": "ratio",
    "model.read_checkpoint.ms": "ms",
    "model.write_checkpoint.ms": "ms",
    "model.checkpoint_bytes": "B",
    "model.read_blocks.us_per_block": "us",
})
for _cmd in CLI_COMMANDS:
    LAYER_UNITS[f"cli.main.{_cmd}.self_ms"] = "ms"
for _gen in GENERATORS:
    LAYER_UNITS[f"{_gen}.s"] = "s"
LAYER_UNITS.update({"trace.overhead_ratio": "ratio", "trace.spans": "count"})


def self_times(spans) -> list[int]:
    """Per span: its duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _mean(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(spans, counters: dict, overhead_ratio: float) -> dict:
    """Every metric in LAYER_UNITS; a layer the workload never called reads 0."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in by_name.get(name, [])]

    out: dict[str, float] = {}
    for path in KERNEL_PATHS:
        idx = by_name.get(f"kernels.{path}", [])
        steps = sum(spans[i][EXTRA]["steps"] for i in idx)
        ns = sum(durations(f"kernels.{path}"))
        flops = sum(
            flops_per_step(path, spans[i][EXTRA]["n"], spans[i][EXTRA]["m"])
            * spans[i][EXTRA]["steps"] for i in idx
        )
        moved = sum(
            bytes_per_step(path, spans[i][EXTRA]["n"], spans[i][EXTRA]["m"])
            * spans[i][EXTRA]["steps"] for i in idx
        )
        out[f"kernels.{path}.steps"] = steps
        out[f"kernels.{path}.calls"] = len(idx)
        out[f"kernels.{path}.steps_per_call"] = _mean(steps, len(idx))
        out[f"kernels.{path}.ns_per_step"] = _mean(ns, steps)
        out[f"kernels.{path}.flops_per_step"] = _mean(flops, steps)
        out[f"kernels.{path}.bytes_per_step"] = _mean(moved, steps)
        out[f"kernels.{path}.gflops"] = _mean(flops, ns)
    ko = by_name.get("kernels.ko", [])
    ko_steps = sum(spans[i][EXTRA]["steps"] for i in ko)
    out["kernels.ko.steps"] = ko_steps
    out["kernels.ko.ns_per_step"] = _mean(sum(durations("kernels.ko")), ko_steps)

    for op in ENGINE_OPS:
        idx = by_name.get(f"engine.{op}", [])
        out[f"engine.{op}.calls"] = len(idx)
        out[f"engine.{op}.self_s"] = sum(selfs[i] for i in idx) / 1e9
    out["engine.trace.points"] = counters.get("engine.trace.points", 0.0)
    out["engine.trace.violations"] = counters.get("engine.trace.violations", 0.0)

    for fn in ("rls_add", "rls_remove"):
        d = durations(f"rls.{fn}")
        out[f"rls.{fn}.us_per_call"] = _mean(sum(d), len(d)) / 1e3
    out["rls.max_dev_from_flow"] = counters.get("rls.max_dev_from_flow", 0.0)

    d = durations("oracle.solve_direct")
    out["oracle.solve_direct.calls"] = len(d)
    out["oracle.solve_direct.ms_per_call"] = _mean(sum(d), len(d)) / 1e6

    solves = by_name.get("pdhg.pdhg_solve", [])
    iters = sum(spans[i][EXTRA]["iterations"] for i in solves)
    out["pdhg.iterations"] = _mean(iters, len(solves))
    out["pdhg.us_per_iter"] = _mean(sum(durations("pdhg.pdhg_solve")), iters) / 1e3
    out["pdhg.prox_dual.calls"] = len(by_name.get("pdhg.prox_dual", []))
    out["pdhg.converged_ratio"] = _mean(
        sum(spans[i][EXTRA]["converged"] for i in solves), len(solves)
    )

    for fn in ("read_checkpoint", "write_checkpoint"):
        d = durations(f"model.{fn}")
        out[f"model.{fn}.ms"] = _mean(sum(d), len(d)) / 1e6
    writes = by_name.get("model.write_checkpoint", [])
    out["model.checkpoint_bytes"] = _mean(
        sum(spans[i][EXTRA]["bytes"] for i in writes), len(writes)
    )
    reads = by_name.get("model.read_blocks", [])
    out["model.read_blocks.us_per_block"] = _mean(
        sum(durations("model.read_blocks")),
        sum(spans[i][EXTRA]["blocks"] for i in reads),
    ) / 1e3

    for cmd in CLI_COMMANDS:
        idx = by_name.get(f"cli.main.{cmd}", [])
        out[f"cli.main.{cmd}.self_ms"] = _mean(sum(selfs[i] for i in idx), len(idx)) / 1e6
    for gen in GENERATORS:
        d = durations(gen)
        out[f"{gen}.s"] = _mean(sum(d), len(d)) / 1e9
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.spans"] = len(spans)
    return out
