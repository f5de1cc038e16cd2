"""The Campaign facade: lifecycle, the one campaign config, resumable
stepping, and submission accounting across checkpoints."""

import numpy as np
import pytest

from repro.engine import (
    Campaign,
    CampaignConfig,
    EngineTask,
    MemoryBackend,
)
from repro.simulation import SyntheticPoolConfig, generate_pool


def make_pool(num_workers=24, seed=1):
    rng = np.random.default_rng(seed)
    return generate_pool(
        SyntheticPoolConfig(num_workers=num_workers, quality_ceiling=0.95),
        rng,
    )


def make_tasks(num_tasks=80, seed=5):
    rng = np.random.default_rng(seed)
    truths = rng.integers(0, 2, size=num_tasks)
    return [
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    ]


def make_campaign(num_shards=1, seed=5, backend=None, **overrides):
    defaults = dict(
        budget=30.0, confidence_target=0.95, seed=seed, num_shards=num_shards
    )
    defaults.update(overrides)
    campaign = Campaign.open(
        make_pool(), CampaignConfig(**defaults), backend=backend
    )
    campaign.submit(make_tasks(seed=seed))
    return campaign


class TestCampaignConfig:
    #: One rejected value per validated field (the keyword arguments
    #: beside ``budget``).
    INVALID = (
        {"budget": -1.0},
        {"batch_size": 0},
        {"reestimate_every": -1},
        {"checkpoint_every": -1},
        {"vote_latency": 0.0},
        {"ingestion": "threaded"},
        {"ingest_max_pending": 0},
        {"ingest_grace": 0.0},
        {"ingest_grace": "soon"},
        {"ingest_producer_quota": 1.5},
        {"telemetry": "verbose"},
        {"vote_source": "oracle"},
        {"metrics_interval": 0.0},
        {"confidence_target": 0.3},
        {"confidence_target": 1.1},
        {"cache_max_entries": 0},
        {"quantization": 0},
        {"quantization": "fine"},
        {"alpha": 1.5},
        {"num_shards": 0},
        {"routing_policy": "round-robin"},
        {"rebalance_threshold": 0.0},
        {"rebalance_max_moves": -1},
        {"serve_port": 70000},
        {"lease_ttl": 0.0},
    )

    def test_validation_rejects_every_bad_field(self):
        for bad in self.INVALID:
            with pytest.raises(ValueError):
                CampaignConfig(**{"budget": 1.0, **bad})

    def test_dict_round_trip(self):
        config = CampaignConfig(
            budget=4.0, num_shards=2, quantization=None, seed=11
        )
        assert CampaignConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            CampaignConfig.from_dict({"budget": 1.0, "shards": 2})

    #: Non-default values of the fields ``from_dict`` drops: every one
    #: of them served the same campaign as the default.
    RETIRED = {
        "parallel_shards": 4,
        "dispatch": "processes",
        "vote_fanout": 3,
        "jq_kernel": "scalar",
    }

    def test_from_dict_drops_retired_fields(self):
        config = CampaignConfig(
            budget=4.0, num_shards=2, quantization=None, seed=11
        )
        saved = {**config.to_dict(), **self.RETIRED}
        assert CampaignConfig.from_dict(saved) == config
        with pytest.raises(ValueError, match="unknown.*bogus"):
            CampaignConfig.from_dict({**saved, "bogus": 1})

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_checkpoint_with_retired_fields_resumes(self, num_shards):
        reference = make_campaign(num_shards).run().fingerprint()
        backend = MemoryBackend()
        campaign = make_campaign(num_shards, backend=backend)
        campaign.run(until=30)
        campaign.checkpoint()
        campaign.close()
        snapshot = backend.load()
        snapshot["campaign"]["config"].update(self.RETIRED)
        backend.save(snapshot)
        resumed = Campaign.resume(backend)
        assert resumed.run().fingerprint() == reference



class TestFacadeEquivalence:
    """Stepping is a schedule, not a decision: pausing and resuming the
    loop reproduces the one-shot campaign bit-for-bit."""

    def test_paused_and_drained_equals_one_shot(self):
        one_shot = make_campaign().run().fingerprint()
        stepped = make_campaign()
        stepped.run(until=20)
        assert not stepped.done
        stepped.run(until=50)
        assert stepped.run().fingerprint() == one_shot
        assert stepped.done


class TestLifecycle:
    def test_direct_construction_is_refused(self):
        with pytest.raises(TypeError, match="Campaign.open"):
            Campaign()

    def test_run_until_pauses_at_completion_count(self):
        campaign = make_campaign()
        metrics = campaign.run(until=25)
        assert 25 <= metrics.completed < 80
        assert not campaign.done
        campaign.run()
        assert campaign.done
        assert campaign.metrics.completed == 80

    def test_submit_between_runs_is_served(self):
        campaign = make_campaign()
        campaign.run(until=25)
        campaign.submit(
            [EngineTask("late-arrival", ground_truth=1)],
            start_time=1e6,
        )
        campaign.run()
        assert campaign.metrics.completed == 81

    def test_submit_after_done_is_refused(self):
        campaign = make_campaign()
        campaign.run()
        with pytest.raises(RuntimeError, match="finished"):
            campaign.submit([EngineTask("too-late")])

    def test_closed_campaign_refuses_everything(self):
        campaign = make_campaign()
        campaign.close()
        campaign.close()  # idempotent
        for call in (
            lambda: campaign.run(),
            lambda: campaign.checkpoint(),
            lambda: campaign.submit([EngineTask("x")]),
        ):
            with pytest.raises(RuntimeError, match="closed"):
                call()

    def test_context_manager_closes(self):
        with make_campaign() as campaign:
            campaign.run(until=10)
        with pytest.raises(RuntimeError, match="closed"):
            campaign.run()

    def test_default_backend_is_memory(self):
        campaign = make_campaign()
        assert isinstance(campaign.backend, MemoryBackend)
        campaign.run(until=10)
        campaign.checkpoint()
        assert campaign.backend.exists()

    def test_render_uses_config_budget(self):
        campaign = make_campaign()
        campaign.run()
        assert "/ budget 30" in campaign.render()

    def test_facade_construction_emits_no_deprecation(self, recwarn):
        make_campaign(num_shards=2)
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]


class TestWarmCacheShipping:
    def test_export_import_round_trip(self, tmp_path):
        path = tmp_path / "warm.json"
        donor = make_campaign()
        donor.run()
        exported = donor.export_cache(path)
        assert exported > 0

        cold = make_campaign(seed=6)
        warmed = cold.import_cache(path)
        assert warmed == exported
        cold.run()
        # A warmed campaign must never *miss* on a shipped entry: its
        # miss count is bounded by the cold run's.
        reference = make_campaign(seed=6)
        reference.run()
        assert (
            cold.metrics.cache_stats.misses
            <= reference.metrics.cache_stats.misses
        )

    def test_sharded_export_merges_shard_caches(self, tmp_path):
        path = tmp_path / "warm.json"
        campaign = make_campaign(num_shards=4)
        campaign.run()
        merged = campaign.export_cache(path)
        per_shard = [
            shard.cache.stats.entries
            for shard in campaign.engine.scheduler.shards
        ]
        assert merged <= sum(per_shard)
        assert merged >= max(per_shard)

    def test_import_into_sharded_campaign_warms_every_shard(self, tmp_path):
        path = tmp_path / "warm.json"
        donor = make_campaign()
        donor.run()
        donor.export_cache(path)
        target = make_campaign(num_shards=2, seed=8)
        target.import_cache(path)
        for shard in target.engine.scheduler.shards:
            assert shard.cache.stats.entries > 0


class TestSubmissionAccounting:
    """A task counts as submitted once the engine accepts it, not once
    its arrival event is dispatched: a campaign checkpointed before its
    loop reaches the arrivals must still report them, live and after
    resume."""

    @pytest.mark.parametrize("ingestion", ["sync", "async"])
    def test_checkpoint_before_dispatch_reports_submissions(
        self, ingestion
    ):
        backend = MemoryBackend()
        campaign = Campaign.open(
            make_pool(),
            CampaignConfig(budget=5.0, ingestion=ingestion, seed=3),
            backend=backend,
        )
        campaign.submit(make_tasks(num_tasks=3))
        campaign.checkpoint()
        assert campaign.snapshot_metrics()["submitted"] == 3
        campaign.close()
        resumed = Campaign.resume(backend)
        assert resumed.metrics.submitted == 3
        metrics = resumed.run()
        assert metrics.submitted == metrics.completed == 3


class TestEntitledTaskLedger:
    """The budget allocator remembers only the tasks it entitled but
    has not admitted yet (deferred ones, which must not mint a second
    share when retried); admitted ids leave, so the set stays as small
    as the backlog."""

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_set_holds_only_deferred_tasks(self, num_shards):
        campaign = make_campaign(num_shards, capacity=2)
        for until in (10, 30, 50):
            campaign.run(until=until)
            engine = campaign.engine
            deferred = {task.task_id for task in engine._deferred}
            assert engine.scheduler.allocator._entitled_tasks <= deferred
        campaign.run()
        assert not campaign.engine.scheduler.allocator._entitled_tasks

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_full_entitled_list_from_old_checkpoints_resumes(self, num_shards):
        """Checkpoints written before admitted ids were retired list
        every task the campaign ever entitled; they resume to the
        uninterrupted run's fingerprint, and the resumed set keeps
        only the deferred tasks."""
        straight = make_campaign(num_shards, capacity=2).run().fingerprint()
        backend = MemoryBackend()
        campaign = make_campaign(num_shards, capacity=2, backend=backend)
        campaign.run(until=30)
        campaign.checkpoint()
        campaign.close()
        snapshot = backend.load()
        section = snapshot["campaign"]
        assert section["deferred"], "the pause must hold a backlog"
        admitted = {r["task_id"] for r in section["metrics"]["records"]}
        admitted |= {rt["task"]["task_id"] for rt in section["active"]}
        ledger = snapshot["ledger"]["allocator"]
        ledger["entitled_tasks"] = sorted(
            admitted | set(ledger["entitled_tasks"])
        )
        old = MemoryBackend()
        old.save(snapshot)
        resumed = Campaign.resume(old)
        deferred = {task.task_id for task in resumed.engine._deferred}
        allocator = resumed.engine.scheduler.allocator
        assert allocator._entitled_tasks <= deferred
        assert resumed.run().fingerprint() == straight
