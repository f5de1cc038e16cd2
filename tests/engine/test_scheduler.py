"""Scheduler invariants: capacity, budget pacing, substitution.

A :class:`CampaignScheduler` admits each batch within the grant it is
handed; campaign-wide pacing and refunds belong to the
:class:`BudgetAllocator`, exercised here through a one-shard
:class:`ShardedScheduler`."""

import numpy as np
import pytest

from repro.core import Worker, WorkerPool
from repro.engine import (
    BudgetAllocator,
    CampaignConfig,
    CampaignScheduler,
    EngineTask,
    JQCache,
    ShardedScheduler,
    SubstituteIndex,
    WorkerRegistry,
    linear_best_substitute,
)
from repro.engine.state import informativeness_key


class LinearScanIndex:
    """The pre-index substitute search as a drop-in index: the oracle
    the heap must agree with, ranked by the same production key."""

    def __init__(self, states):
        self._ranked = sorted(
            states, key=lambda s: informativeness_key(s.worker)
        )

    def best(self, max_cost, exclude):
        return linear_best_substitute(self._ranked, max_cost, exclude)


def make_scheduler(pool, capacity=2, frontier_pool_size=6):
    registry = WorkerRegistry(pool, capacity=capacity)
    return CampaignScheduler(
        registry, JQCache(), frontier_pool_size=frontier_pool_size
    )


def make_paced(
    pool, budget, expected_tasks, capacity=2, frontier_pool_size=6
):
    """One shard under the campaign's budget allocator: the scheduler
    the engine serves a one-shard campaign with."""
    registry = WorkerRegistry(pool, capacity=capacity)
    config = CampaignConfig(
        budget=budget, capacity=capacity, frontier_pool_size=frontier_pool_size
    )
    return ShardedScheduler(registry, config, expected_tasks)


@pytest.fixture
def pool():
    rng = np.random.default_rng(9)
    return WorkerPool(
        Worker(f"w{i}", float(rng.uniform(0.55, 0.9)), float(rng.uniform(0.2, 1.0)))
        for i in range(12)
    )


def tasks(n, start=0):
    return [EngineTask(f"t{i}") for i in range(start, start + n)]


class TestCapacityInvariant:
    def test_no_worker_exceeds_capacity(self, pool):
        scheduler = make_scheduler(pool, capacity=2)
        seated = []
        for batch_start in (0, 10, 20):
            assignments, _ = scheduler.admit(tasks(10, batch_start), 100.0)
            seated.extend(assignments)
            for state in scheduler.registry.states:
                assert state.load <= state.capacity
                assert state.peak_load <= state.capacity

    def test_saturated_workers_get_substituted_or_deferred(self, pool):
        """With capacity 1 and plenty of budget, 30 concurrent tasks
        cannot all get the frontier-optimal jury; whatever happens, no
        seat is double-booked and every funded jury is non-empty."""
        scheduler = make_scheduler(pool, capacity=1)
        assignments, deferred = scheduler.admit(tasks(30), 300.0)
        seats: dict[str, int] = {}
        for assignment in assignments:
            for worker_id in assignment.jury.worker_ids:
                seats[worker_id] = seats.get(worker_id, 0) + 1
        assert all(count == 1 for count in seats.values())
        # 12 workers, capacity 1 -> at most 12 funded juries at once.
        funded = [a for a in assignments if a.funded]
        assert len(funded) <= 12
        assert len(funded) + len(deferred) + sum(
            1 for a in assignments if not a.funded
        ) == 30

    def test_planned_member_already_seated_as_substitute(self):
        """A planned juror who was already seated earlier in the loop —
        as a saturated member's substitute — must not be double-booked
        (regression: this used to raise and abort the campaign)."""
        pool = WorkerPool([Worker("A", 0.9, 1.0), Worker("B", 0.85, 1.0)])
        registry = WorkerRegistry(pool, capacity={"A": 1, "B": 4})
        registry.assign("A", "other")  # saturate A
        scheduler = CampaignScheduler(
            registry, JQCache(), frontier_pool_size=2
        )
        jury = scheduler._seat_jury(
            EngineTask("t1"), ["A", "B"], 2.0,
            SubstituteIndex(registry.states),
        )
        assert jury is not None
        assert jury.worker_ids == ("B",)
        assert registry.state("B").load == 1

    def test_everything_deferred_when_no_seats(self, pool):
        scheduler = make_scheduler(pool, capacity=1)
        for worker in pool:
            scheduler.registry.assign(worker.worker_id, "blocker")
        assignments, deferred = scheduler.admit(tasks(5), 50.0)
        assert assignments == []
        assert len(deferred) == 5


class TestBudgetInvariant:
    def test_reserved_never_exceeds_budget(self, pool):
        budget = 6.0
        scheduler = make_paced(pool, budget=budget, expected_tasks=40,
                               capacity=4)
        for batch_start in range(0, 40, 10):
            scheduler.admit(tasks(10, batch_start))
        allocator = scheduler.allocator
        assert allocator.reserved <= budget + 1e-9
        assert allocator.remaining_budget >= -1e-9

    def test_batch_share_paces_spend(self, pool):
        """The first batch may only reserve its pro-rata share, leaving
        budget for later arrivals."""
        budget = 40.0
        scheduler = make_paced(pool, budget=budget, expected_tasks=40,
                               capacity=4)
        scheduler.admit(tasks(10))
        allocator = scheduler.allocator
        assert allocator.reserved <= budget * 10 / 40 + 1e-9
        assert allocator.remaining_budget >= budget * 30 / 40 - 1e-9

    def test_refund_returns_to_the_pot(self, pool):
        scheduler = make_paced(pool, budget=10.0, expected_tasks=10)
        assignments, _ = scheduler.admit(tasks(10))
        allocator = scheduler.allocator
        reserved = allocator.reserved
        assert reserved > 0
        allocator.refund(0.5)
        assert allocator.remaining_budget == pytest.approx(
            10.0 - reserved + 0.5
        )

    def test_refunds_carry_over_to_later_batches(self):
        """Budget refunded by early stops (and shares a batch left
        unspent) must be reservable by later batches, not forfeited
        (regression: pacing used to cap every batch at its bare
        pro-rata share)."""
        pool = WorkerPool(
            Worker(f"w{i}", 0.72 + 0.01 * i, 2.0) for i in range(5)
        )
        scheduler = make_paced(pool, budget=10.0, expected_tasks=2,
                               capacity=5, frontier_pool_size=5)
        first, _ = scheduler.admit([EngineTask("t0")])
        cost_first = first[0].reserved_cost
        assert 0 < cost_first <= 5.0 + 1e-9  # paced to its share
        scheduler.allocator.refund(cost_first)  # t0 stopped before any vote
        second, _ = scheduler.admit([EngineTask("t1")])
        # t1's batch may now draw on the refunded share too.
        assert second[0].reserved_cost > 5.0 + 1e-9
        assert scheduler.allocator.remaining_budget >= -1e-9

    def test_negative_refund_rejected(self, pool):
        scheduler = make_paced(pool, budget=10.0, expected_tasks=10)
        with pytest.raises(ValueError):
            scheduler.allocator.refund(-1.0)

    def test_jury_cost_within_planned_cost(self, pool):
        """Substitution never produces a jury dearer than the frontier
        point the allocation bought."""
        scheduler = make_scheduler(pool, capacity=1)
        assignments, _ = scheduler.admit(tasks(20), 50.0)
        for assignment in assignments:
            if assignment.funded:
                assert assignment.jury.cost <= assignment.reserved_cost + 1e-9


class TestAdmitMechanics:
    def test_empty_batch_is_noop(self, pool):
        scheduler = make_scheduler(pool)
        assert scheduler.admit([], 10.0) == ([], [])

    def test_zero_budget_answers_priors(self, pool):
        scheduler = make_scheduler(pool)
        assignments, deferred = scheduler.admit(tasks(5), 0.0)
        assert deferred == []
        assert all(not a.funded for a in assignments)
        assert all(a.reserved_cost == 0.0 for a in assignments)

    def test_predicted_jq_is_cached_objective_value(self, pool):
        scheduler = make_scheduler(pool)
        assignments, _ = scheduler.admit(tasks(5), 50.0)
        funded = [a for a in assignments if a.funded]
        assert funded
        for assignment in funded:
            assert assignment.predicted_jq == scheduler.cache.jq_jury(
                assignment.jury
            )

    def test_validation(self, pool):
        registry = WorkerRegistry(pool)
        with pytest.raises(ValueError):
            BudgetAllocator(budget=-1.0, expected_tasks=5)
        with pytest.raises(ValueError):
            BudgetAllocator(budget=1.0, expected_tasks=0)
        with pytest.raises(ValueError):
            CampaignScheduler(registry, JQCache(), frontier_pool_size=0)
        with pytest.raises(ValueError):
            CampaignScheduler(registry, JQCache(), frontier_pool_size=21)
        # 13-20 became legal with the streamed frontier: the scheduler
        # is no longer pinned by the dense lattice's memory wall.
        from repro.engine.scheduler import MAX_FRONTIER_POOL

        assert MAX_FRONTIER_POOL == 20
        scheduler = CampaignScheduler(
            registry, JQCache(), frontier_pool_size=MAX_FRONTIER_POOL
        )
        assert scheduler.frontier_pool_size == 20


class TestSubstituteIndex:
    """The heap-backed index must agree with the linear reference scan
    query for query — it is an indexing change, not a policy change."""

    def test_agrees_with_linear_scan_under_random_queries(self):
        rng = np.random.default_rng(17)
        pool = WorkerPool(
            Worker(
                f"w{i:02d}",
                float(rng.uniform(0.5, 0.95)),
                float(rng.uniform(0.2, 1.5)),
            )
            for i in range(64)
        )
        registry = WorkerRegistry(pool, capacity=2)
        index = SubstituteIndex(registry.states)
        oracle = LinearScanIndex(registry.states)
        for step in range(300):
            max_cost = float(rng.uniform(0.1, 1.6))
            exclude = set(
                rng.choice(registry.worker_ids, size=rng.integers(0, 5),
                           replace=False)
            )
            expected = oracle.best(max_cost, exclude)
            assert index.best(max_cost, exclude) == expected
            if expected is not None and rng.random() < 0.7:
                # Seat the chosen worker, as admit would (capacity only
                # ever decreases within a batch).
                registry.assign(expected, f"task-{step}")

    def test_saturated_workers_are_dropped_not_lost_prematurely(self):
        pool = WorkerPool(
            [Worker("A", 0.9, 1.0), Worker("B", 0.8, 1.0),
             Worker("C", 0.7, 1.0)]
        )
        registry = WorkerRegistry(pool, capacity=1)
        index = SubstituteIndex(registry.states)
        # A is too expensive for the first seat but must survive for
        # the second query.
        assert index.best(max_cost=1.0, exclude={"A"}) == "B"
        assert index.best(max_cost=1.0, exclude=set()) == "A"
        registry.assign("A", "t0")
        assert index.best(max_cost=1.0, exclude=set()) == "B"

    def test_exhausted_index_returns_none(self):
        pool = WorkerPool([Worker("A", 0.9, 2.0)])
        registry = WorkerRegistry(pool, capacity=1)
        index = SubstituteIndex(registry.states)
        assert index.best(max_cost=1.0, exclude=set()) is None  # too dear
        assert index.best(max_cost=5.0, exclude=set()) == "A"
        registry.assign("A", "t0")
        assert index.best(max_cost=5.0, exclude=set()) is None

    def test_identical_seatings_on_seeded_campaigns(self):
        """End to end: a campaign served with the heap index must admit
        byte-identical juries to one served with the linear scan."""
        from repro.engine import Campaign, CampaignConfig
        from repro.simulation import SyntheticPoolConfig, generate_pool

        def run(patched):
            rng = np.random.default_rng(23)
            sim_pool = generate_pool(
                SyntheticPoolConfig(num_workers=64, quality_ceiling=0.95),
                rng,
            )
            campaign = Campaign.open(
                sim_pool,
                CampaignConfig(
                    budget=60.0, capacity=2, batch_size=40,
                    confidence_target=0.95, seed=23,
                ),
            )
            if patched:
                scheduler_cls = CampaignScheduler
                original = scheduler_cls._make_substitute_index
                scheduler_cls._make_substitute_index = (
                    lambda self: LinearScanIndex(self.registry.states)
                )
                try:
                    campaign.submit(tasks(200))
                    return campaign.run().fingerprint()
                finally:
                    scheduler_cls._make_substitute_index = original
            campaign.submit(tasks(200))
            return campaign.run().fingerprint()

        assert run(patched=False) == run(patched=True)
