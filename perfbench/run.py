"""ricreg benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload edit-dense --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is a JSON report with provenance and every correctness gate.  Work files
and span dumps go to ``.perfbench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Pin the BLAS pool before numpy loads: one thread, so that timings do not
# depend on what else runs on the machine's cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

MIN_ROUNDS = 3
WORKDIR = ".perfbench"
# The CPUs the process may run on.  Set-ups and pairs of rounds take them in
# turn: on a shared host one CPU can run at half the speed of another for
# minutes, and a process the scheduler keeps on one CPU would otherwise
# measure that CPU.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _pin(k: int) -> None:
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "fit_s": "s",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "updates_per_s": "1/s",
    "sweep_s": "s",
    "query_p50_us": "us",
    "query_p90_us": "us",
    "pdhg_s": "s",
    "max_rel_err": "ratio",
    "peak_rss_mb": "MB",
    "failure_ratio": "ratio",
}


def _import_ricreg():
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ricreg", "__init__.py")):
        raise SystemExit(f"error: no ricreg sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import ricreg

    if not os.path.abspath(ricreg.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: ricreg imported from {ricreg.__file__}, not {src}")
    return ricreg


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(ricreg, seed: int) -> dict:
    import platform

    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": has_numba,
        "kernel_backend": "numba" if ricreg._kernels._USE_NUMBA else "numpy",
        "nproc": os.cpu_count(),
        "cpus_rotated": CPUS,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _median(values):
    import statistics

    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def failure_ratio(per_round) -> float:
    """Operations that raised or failed a check over operations attempted, in
    the round with the most failures.  Per round, because the number of
    rounds follows the machine's speed; add-one, so that it is never 0 and a
    workload with no failure still has a ratio to compare against."""
    attempted, failed = max(per_round, key=lambda c: (c[1], c[0]))
    return (failed + 1) / (attempted + 1)


def end_to_end(rec, setups_ns, per_round) -> dict:
    """Each operation of a round is timed once per round and counts with its
    fastest repetition; medians and percentiles are over the operations of
    the round, and a time made of several calls (wall_s; fit_s and sweep_s
    when the fit or the sweep is several calls) is the sum of their fastest
    repetitions.  The reference machine (2 vCPUs of a shared host) alternates
    between two speeds about 2x apart in phases of 2 s to a few minutes: the
    best of R repetitions spread over the run is what stays steady from run
    to run, and it is steadier the shorter the operation, because a short
    operation falls inside a fast phase more often."""
    import resource

    updates = rec.best("update")
    queries = rec.best("query")
    values = {
        "setup_s": _median(setups_ns) / 1e9,
        "wall_s": sum(rec.best("call")) / 1e9,
        "fit_s": sum(rec.best("fit")) / 1e9,
        "update_p50_ms": _percentile(updates, 50) / 1e6,
        "update_p90_ms": _percentile(updates, 90) / 1e6,
        "updates_per_s": len(updates) / (sum(updates) / 1e9) if updates else 0.0,
        "sweep_s": sum(rec.best("sweep")) / 1e9,
        "query_p50_us": _percentile(queries, 50) / 1e3,
        "query_p90_us": _percentile(queries, 90) / 1e3,
        "pdhg_s": _median(rec.best("pdhg")) / 1e9,
        "max_rel_err": max(rec.errors, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failure_ratio": failure_ratio(per_round),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; rounds repeat until it has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test only")
    args = parser.parse_args(argv)

    ricreg = _import_ricreg()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import gc
    import time
    from contextlib import nullcontext

    import tracing
    from workloads import WORKLOADS, Recorder, RoundAborted

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.tiny, WORKDIR)
    rec = Recorder()
    tracer = tracing.Tracer() if args.trace else None
    # Rounds repeat while one more of median length ends within --seconds of
    # the first set-up, at least MIN_ROUNDS of them.  The workload's set-ups
    # are spread evenly over the run, so that their median does not hang on
    # one phase of the machine's speed; set-ups still due when the rounds end
    # run then.  The garbage collector runs before each timed set-up and
    # round, so that a collection owed by the previous one does not land in
    # it.
    count = workload.setups
    setup_due = [k * args.seconds / count for k in range(count)]
    setups, walls, traced_walls, per_round, aborted = [], [], [], [], 0
    round_s = []
    start = time.perf_counter()

    def set_up():
        traced = tracer is not None and len(setups) == count - 1
        rec.tracer = tracer if traced else None
        rec.begin(in_round=False)
        _pin(len(setups))
        gc.collect()
        with tracing.installed(tracer, ricreg) if traced else nullcontext():
            t0 = time.perf_counter_ns()
            workload.setup(rec)
            setups.append(time.perf_counter_ns() - t0)

    try:
        k = 0
        while k < MIN_ROUNDS or time.perf_counter() - start + _median(round_s) < args.seconds:
            while setup_due and time.perf_counter() - start >= setup_due[0]:
                setup_due.pop(0)
                set_up()
            traced = tracer is not None and k % 2 == 1
            rec.tracer = tracer if traced else None
            round_start = time.perf_counter()
            rec.begin(in_round=True)
            _pin(k // 2)
            attempted, failures = rec.attempted, rec.raised + rec.gate_failures
            gc.collect()
            with tracing.installed(tracer, ricreg) if traced else nullcontext():
                excluded = rec.excluded_ns
                t0 = time.perf_counter_ns()
                try:
                    workload.run_round(rec)
                except RoundAborted:
                    aborted += 1
                wall = time.perf_counter_ns() - t0 - (rec.excluded_ns - excluded)
            (traced_walls if traced else walls).append(wall)
            per_round.append((rec.attempted - attempted,
                              rec.raised + rec.gate_failures - failures))
            round_s.append(time.perf_counter() - round_start)
            k += 1
        for _ in setup_due:
            set_up()
    finally:
        rec.tracer = None
        workload.close()
        if len(CPUS) > 1:
            os.sched_setaffinity(0, CPUS)

    correct = rec.raised == 0 and all(
        g["failed"] == 0 for g in rec.gates.values() if g["kind"] == "tolerance"
    )
    report = {
        "workload": args.workload,
        "provenance": provenance(ricreg, args.seed),
        "rounds": len(per_round),
        "setups_s": [t / 1e9 for t in setups],
        "aborted_rounds": aborted,
        "samples": {k: sum(map(len, v.values())) for k, v in rec.samples.items()},
        "gates": rec.gates,
        "gate_failures": rec.gate_failures,
    }
    if tracer is None:
        metrics = end_to_end(rec, setups, per_round)
    else:
        overhead = min(traced_walls) / min(walls)
        layers = tracing.layer_metrics(tracer.spans, tracer.counters, overhead)
        dump = os.path.join(WORKDIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
        tracer.dump(dump, report=report, layers=layers)
        report["span_dump"] = dump
        metrics = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]} for k, v in layers.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.raised,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
