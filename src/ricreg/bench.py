"""Micro-benchmarks for per-update cost: incremental solvers vs full recompute.

Incremental updates (flow integration or Woodbury) touch only the fixed-size
state, so their per-update time should not depend on how many points the
state already contains; a direct normal-equations recompute re-reads all N
blocks.  Only timing ratios are meaningful here, not absolute seconds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .engine import IntegrationConfig, add_block
from .model import DataBlock, Hyperparams
from .oracle import solve_direct
from .rls import rls_add, rls_fit
from .rng import Xoshiro256pp

__all__ = ["BenchReport", "bench_incremental"]

_METHODS = ("riccati", "rls", "lsq")


@dataclass(frozen=True)
class BenchReport:
    method: str
    n: int
    m: int
    samples: tuple  # (dataset size N, seconds per update) pairs
    repetitions: int

    def seconds(self) -> list[float]:
        return [s for _, s in self.samples]

    def ratio(self) -> float:
        """Largest-to-smallest per-update time across the measured sizes."""
        secs = self.seconds()
        return max(secs) / min(secs)


def _random_blocks(count: int, n: int, m: int, rng: Xoshiro256pp) -> list[DataBlock]:
    blocks = []
    for _ in range(count):
        phi = np.array([[rng.gaussian() for _ in range(n)] for _ in range(m)])
        y = np.array([rng.gaussian() for _ in range(m)])
        blocks.append(DataBlock(phi=phi, y=y))
    return blocks


def _time_update(update, min_repetitions: int) -> float:
    """Median batch-average wall time; batches sized so one batch >= ~2 ms."""
    update()  # warm-up (caches)
    t0 = time.perf_counter()
    update()
    once = max(time.perf_counter() - t0, 1e-9)
    batch = max(1, int(math.ceil(0.002 / once)))
    rounds = max(5, int(math.ceil(min_repetitions / batch)))
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(batch):
            update()
        times.append((time.perf_counter() - t0) / batch)
    return float(np.median(times))


def bench_incremental(
    n: int,
    m: int,
    sizes,
    method: str,
    h: float = 1e-2,
    seed: int = 20240,
    repetitions: int = 20,
) -> BenchReport:
    """Time one model update at each prebuilt dataset size.

    For the incremental methods the update is a single block addition on a
    state already holding N points; for ``lsq`` it is the full direct solve
    over all N+1 blocks that a recompute-based workflow would run.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    sizes = [int(s) for s in sizes]
    if sizes != sorted(sizes) or len(sizes) < 1 or sizes[0] < 1:
        raise ValueError("sizes must be ascending positive integers")
    if repetitions < 20:
        raise ValueError("repetitions must be >= 20")

    rng = Xoshiro256pp(seed)
    hyper = Hyperparams(gamma=np.ones(n), theta0=np.zeros(n))
    pool = _random_blocks(sizes[-1], n, m, rng)
    new_block = _random_blocks(1, n, m, rng)[0]
    cfg = IntegrationConfig(step_h=h)

    samples = []
    for size in sizes:
        blocks = pool[:size]
        if method == "lsq":
            all_blocks = blocks + [new_block]
            update = lambda: solve_direct(hyper, all_blocks)
        else:
            # The prebuilt state is assembled with the exact Woodbury updates;
            # the timed operation only sees the resulting fixed-size state.
            state = rls_fit(hyper, blocks)
            if method == "riccati":
                update = lambda: add_block(state, new_block, cfg)
            else:
                update = lambda: rls_add(state, new_block)
        samples.append((size, _time_update(update, repetitions)))
    return BenchReport(
        method=method, n=n, m=m, samples=tuple(samples), repetitions=repetitions
    )
