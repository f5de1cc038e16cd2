"""Batched JQ kernels: exact-frontier construction.

``exact_frontier`` over a 10-worker candidate pool (the engine
scheduler's default ``frontier_pool_size``) via the all-subsets lattice
kernel vs the one-jury-at-a-time scalar loop kept in-tree as the
regression oracle.  Identical frontiers are asserted point for point;
the acceptance bar is a >= 5x build-time speedup.  The scheduler always
builds through the kernel, so this is the gate that keeps it fast.
"""

import time

import numpy as np

from repro.experiments.reporting import ExperimentResult, SweepSeries
from repro.frontier import exact_frontier
from repro.selection import JQObjective
from repro.simulation import SyntheticPoolConfig, generate_pool

SEED = 2015
FRONTIER_POOL = 10
FRONTIER_ROUNDS = 5
#: Acceptance bar from the issue: the kernel frontier build must be at
#: least this much faster than the scalar build at n = 10.
MIN_FRONTIER_SPEEDUP = 5.0


def _frontier_pool(num_workers: int):
    rng = np.random.default_rng(SEED)
    return generate_pool(
        SyntheticPoolConfig(num_workers=num_workers, quality_ceiling=0.95),
        rng,
    )


def _time_frontier(pool, implementation: str) -> tuple[float, object]:
    best = float("inf")
    frontier = None
    for _ in range(FRONTIER_ROUNDS):
        objective = JQObjective()  # fresh: no cross-run memo effects
        start = time.perf_counter()
        frontier = exact_frontier(pool, objective, implementation=implementation)
        best = min(best, time.perf_counter() - start)
    return best, frontier


def test_frontier_kernel_speedup(benchmark, emit, emit_json):
    pool = _frontier_pool(FRONTIER_POOL)

    def sweep():
        scalar_time, scalar_frontier = _time_frontier(pool, "scalar")
        batch_time, batch_frontier = _time_frontier(pool, "batch")
        return scalar_time, batch_time, scalar_frontier, batch_frontier

    scalar_time, batch_time, scalar_frontier, batch_frontier = (
        benchmark.pedantic(sweep, rounds=1, iterations=1)
    )

    # A performance lever, not a policy change: identical frontiers.
    assert batch_frontier.points == scalar_frontier.points

    speedup = scalar_time / batch_time
    result = ExperimentResult(
        experiment_id="frontier-kernel",
        title=(
            f"Exact frontier build: all-subsets kernel vs scalar loop "
            f"({FRONTIER_POOL}-worker pool, 2^{FRONTIER_POOL}-1 juries, "
            f"best of {FRONTIER_ROUNDS})"
        ),
        x_label="implementation (1=scalar, 2=batch kernel)",
        xs=(1.0, 2.0),
        series=(
            SweepSeries(
                "build seconds", (scalar_time, batch_time)
            ),
        ),
        notes=(
            f"kernel speedup {speedup:.1f}x; identical frontier points; "
            f"acceptance bar >= {MIN_FRONTIER_SPEEDUP:.0f}x"
        ),
    )
    emit(result.render())
    emit_json(
        "frontier-kernel",
        {
            "pool_size": FRONTIER_POOL,
            "scalar_build_seconds": scalar_time,
            "batch_build_seconds": batch_time,
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_FRONTIER_SPEEDUP, (
        f"kernel frontier build only {speedup:.1f}x faster than scalar "
        f"({batch_time * 1e3:.1f}ms vs {scalar_time * 1e3:.1f}ms)"
    )
