"""Seeded workload inputs: worker pools, task streams and HTTP votes.

Everything here is a pure function of the seed, so the same seed gives
the same inputs in every process (``run.py`` with its HTTP client
fleet, the in-process program and the HTTP launcher each rebuild them
independently).

Pools follow two recipes: the paper's synthetic crowd (qualities from
N(0.7, 0.05) clipped to [0, 0.95], costs from the folded
|N(0.05, 0.2)|) and the planning pool of
``benchmarks/bench_streamed_frontier.py`` (qualities uniform on
[0.55, 0.99], costs on [0.2, 3.2]).  Both are drawn by *stratified*
sampling with one fixed pairing: worker i always takes the same
quality stratum and the same cost stratum, and the seed only moves it
within the middle half of each (quantile ``(k + u) / n``, u in
[0.25, 0.75]).  Who is cheap and good is what drives the scheduler, so
a free pairing would let one seed draw a far better crowd than
another; this way every seed's crowd has the same shape, and the seed
varies the exact qualities and costs, the task truths and every vote.
"""

from __future__ import annotations

import hashlib
from statistics import NormalDist

import numpy as np

QUALITY = NormalDist(0.7, 0.05**0.5)
QUALITY_CEILING = 0.95
COST = NormalDist(0.05, 0.2)
#: Seed of the fixed quality/cost pairing (the same for every run).
PAIRING_SEED = 2015


def _positions(seed_key, num_workers: int) -> tuple[np.ndarray, np.ndarray]:
    """Per worker, its quality and cost quantile positions in (0, 1)."""
    pairing = np.random.default_rng([PAIRING_SEED, num_workers])
    q_stratum = pairing.permutation(num_workers)
    c_stratum = pairing.permutation(num_workers)
    rng = np.random.default_rng(seed_key)
    jitter = rng.uniform(0.25, 0.75, size=(2, num_workers))
    return (
        (q_stratum + jitter[0]) / num_workers,
        (c_stratum + jitter[1]) / num_workers,
    )


def pool_rows(
    seed: int, num_workers: int, stream: int = 0
) -> list[tuple[str, float, float]]:
    """``(worker_id, quality, cost)`` rows of one synthetic crowd."""
    q_pos, c_pos = _positions([seed, num_workers, 1, stream], num_workers)
    return [
        (
            f"w{i:03d}",
            min(max(QUALITY.inv_cdf(float(q)), 0.0), QUALITY_CEILING),
            abs(COST.inv_cdf(float(c))),
        )
        for i, (q, c) in enumerate(zip(q_pos, c_pos))
    ]


def frontier_pool_rows(
    seed: int, num_workers: int, stream: int = 0
) -> list[tuple[str, float, float]]:
    """``(worker_id, quality, cost)`` rows of one planning pool."""
    q_pos, c_pos = _positions([seed, num_workers, 2, stream], num_workers)
    return [
        (f"w{i}", float(0.55 + 0.44 * q), float(0.2 + 3.0 * c))
        for i, (q, c) in enumerate(zip(q_pos, c_pos))
    ]


def make_pool(rows):
    from repro.core import Worker, WorkerPool

    return WorkerPool(Worker(wid, q, c) for wid, q, c in rows)


def task_truths(seed: int, count: int, stream: int = 0) -> list[int]:
    """Ground truths of ``count`` tasks (balanced in expectation)."""
    rng = np.random.default_rng([seed, count, 3, stream])
    return [int(t) for t in rng.integers(0, 2, size=count)]


def task_id(stream: int, index: int) -> str:
    return f"s{stream:03d}-t{index:05d}"


def make_tasks(seed: int, count: int, stream: int = 0):
    from repro.engine import EngineTask

    return [
        EngineTask(task_id(stream, i), ground_truth=truth)
        for i, truth in enumerate(task_truths(seed, count, stream))
    ]


def unit_hash(seed: int, *parts: str) -> float:
    """A uniform draw in [0, 1) that depends only on its arguments.

    Python's ``hash()`` of a string is salted per process, so the client
    and the server would not agree on it.  CRC-32 is stable but linear:
    keys that differ only in the worker id give draws on the same side
    of any threshold, so every juror of a task would vote alike.  A
    BLAKE2b digest gives independent draws.
    """
    key = ":".join((str(seed),) + parts).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def http_vote(seed: int, task: str, worker: str, truth: int, quality: float) -> int:
    """The worker's answer: correct with probability ``quality``."""
    return truth if unit_hash(seed, task, worker) < quality else 1 - truth
