"""Async ingestion over 4 shards vs the 1-shard sequential loop.

A 64-worker, 4-shard campaign under **burst ingestion** — producer
threads dumping bursts of tasks into the live intake while juries are
being seated — served by the async intake loop, measured against the
classic sequential configuration (single scheduler, pre-loaded
synchronous event loop) on identical seeded traffic.

The gated ratio mixes two changes, and nearly all of it is sharding:
sharding divides the admission-round work by K (the structural win
``bench_engine_sharding.py`` measures), while the intake only moves
where tasks wait.  To keep that confound visible, the run also records
— without a gate — a 4-shard *synchronous* campaign on the same
traffic.  The acceptance bar is **>= 2x** the 1-shard loop's tasks/sec;
the run also re-asserts the serving invariants at benchmark scale and
checks the async intake actually carried the traffic (every task
flowed through the bounded queue).

The deterministic pin (async == sync fingerprints) lives in
``tests/engine/test_invariants.py``; this file is about wall-clock.
"""

import threading

import numpy as np

from repro.engine import Campaign, CampaignConfig, EngineTask
from repro.experiments.reporting import ExperimentResult, SweepSeries
from repro.simulation import SyntheticPoolConfig, generate_pool

POOL_SIZE = 64
NUM_SHARDS = 4
CAPACITY = 8
BATCH_SIZE = 200  # burst ingestion: arrivals buffered into large batches
NUM_TASKS = 3_000
BUDGET_PER_TASK = 0.25
SEED = 2015
PRODUCERS = 4
BURST = 50  # tasks per producer submit() call
#: Acceptance bar: the async 4-shard campaign must clear at least this
#: multiple of the 1-shard sequential loop's burst throughput.
MIN_SPEEDUP = 2.0


def _pool_and_tasks():
    rng = np.random.default_rng(SEED)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=POOL_SIZE, quality_ceiling=0.95), rng
    )
    truths = rng.integers(0, 2, size=NUM_TASKS)
    tasks = [
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    ]
    return pool, tasks


def _config(**overrides):
    return CampaignConfig(
        budget=BUDGET_PER_TASK * NUM_TASKS,
        capacity=CAPACITY,
        batch_size=BATCH_SIZE,
        confidence_target=0.95,
        expected_tasks=NUM_TASKS,
        seed=SEED,
        **overrides,
    )


def run_sequential(num_shards=1):
    """Synchronous pre-loaded loop; ``num_shards=1`` (single scheduler)
    is the gated baseline."""
    pool, tasks = _pool_and_tasks()
    campaign = Campaign.open(pool, _config(num_shards=num_shards))
    campaign.submit(tasks)
    metrics = campaign.run()
    assert metrics.completed == NUM_TASKS
    assert metrics.peak_worker_load <= CAPACITY
    assert metrics.total_spend <= campaign.config.budget + 1e-6
    return metrics


def run_async():
    """Async intake fed by bursting producer threads, 4 shards."""
    pool, tasks = _pool_and_tasks()
    campaign = Campaign.open(
        pool,
        _config(num_shards=NUM_SHARDS, ingestion="async", ingest_grace=2.0),
    )
    chunks = [tasks[j::PRODUCERS] for j in range(PRODUCERS)]

    def producer(chunk):
        for burst_start in range(0, len(chunk), BURST):
            campaign.submit(
                chunk[burst_start : burst_start + BURST],
                start_time=float(burst_start),
            )

    producers = [
        threading.Thread(target=producer, args=(chunk,)) for chunk in chunks
    ]

    def closer():
        for thread in producers:
            thread.join()
        campaign.close_intake()

    closer_thread = threading.Thread(target=closer)
    for thread in producers:
        thread.start()
    closer_thread.start()
    metrics = campaign.run()
    closer_thread.join(timeout=30.0)
    assert not closer_thread.is_alive()

    assert metrics.completed == NUM_TASKS
    assert metrics.peak_worker_load <= CAPACITY
    assert metrics.total_spend <= campaign.config.budget + 1e-6
    # All traffic rode the bounded queue.
    assert campaign.intake_stats.submitted == NUM_TASKS
    campaign.close()
    return metrics


def test_async_sharded_vs_sequential_throughput(benchmark, emit, emit_json):
    def sweep():
        sequential = run_sequential()
        sharded = run_sequential(num_shards=NUM_SHARDS)
        concurrent = run_async()
        return sequential, sharded, concurrent

    sequential, sharded, concurrent = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    speedup = concurrent.throughput / sequential.throughput
    runs = (sequential, sharded, concurrent)
    result = ExperimentResult(
        experiment_id="engine-async-ingestion",
        title=(
            f"Async intake over {NUM_SHARDS} shards vs the 1-shard "
            f"sequential loop ({POOL_SIZE} workers, {PRODUCERS} producer "
            f"threads bursting {BURST}, {NUM_TASKS} tasks)"
        ),
        x_label=(
            f"configuration (0=sync 1 shard, 1=sync {NUM_SHARDS} shards, "
            f"2=async {NUM_SHARDS} shards)"
        ),
        xs=(0.0, 1.0, 2.0),
        series=(
            SweepSeries("tasks/sec", tuple(m.throughput for m in runs)),
            SweepSeries(
                "realized accuracy",
                tuple(m.realized_accuracy for m in runs),
            ),
            SweepSeries("net spend", tuple(m.total_spend for m in runs)),
        ),
        notes=(
            f"speedup {speedup:.2f}x over the 1-shard loop (acceptance "
            f"bar >= {MIN_SPEEDUP}x); sync {NUM_SHARDS}-shard run "
            "recorded without a gate; identical seeded traffic; "
            "capacity/budget invariants asserted; all async traffic "
            "flowed through the bounded intake"
        ),
    )
    emit(result.render())
    emit_json(
        "engine-async-ingestion",
        {
            "shards": NUM_SHARDS,
            "producer_threads": PRODUCERS,
            "burst_size": BURST,
            "tasks": NUM_TASKS,
            "sequential_tasks_per_sec": sequential.throughput,
            "sync_sharded_tasks_per_sec": sharded.throughput,
            "async_tasks_per_sec": concurrent.throughput,
            "speedup": speedup,
        },
    )

    assert speedup >= MIN_SPEEDUP, (
        f"async {NUM_SHARDS}-shard engine only {speedup:.2f}x the "
        f"sequential loop ({concurrent.throughput:,.0f} vs "
        f"{sequential.throughput:,.0f} tasks/s)"
    )
    # 4x the engaged candidate pool must not cost accuracy.
    assert (
        concurrent.realized_accuracy
        >= sequential.realized_accuracy - 0.02
    )
