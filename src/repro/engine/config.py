"""One unified configuration for a campaign's whole serving stack.

Before the :class:`~repro.engine.campaign.Campaign` facade, choosing a
shard count meant choosing a *class* (``CampaignEngine`` vs
``ShardedCampaignEngine(..., ShardingConfig(k))``) and threading two
config objects through.  :class:`CampaignConfig` subsumes
:class:`~repro.engine.engine.EngineConfig` and
:class:`~repro.engine.sharding.ShardingConfig`: every engine, cache,
routing, and rebalancing knob in one frozen dataclass, with shard count
as an ordinary field (``num_shards=1`` serves through the single
scheduler, ``>1`` through the sharded one — the two are byte-identical
at one shard, pinned by regression tests).

The config round-trips through :meth:`to_dict` / :meth:`from_dict`, so
state backends persist it alongside the campaign and
``Campaign.resume`` rebuilds the exact serving stack.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Mapping

from ..core.task import UNINFORMATIVE_PRIOR
from .engine import EngineConfig
from .sharding import ShardingConfig

#: EngineConfig fields CampaignConfig forwards verbatim.
_ENGINE_FIELDS = tuple(f.name for f in fields(EngineConfig))

#: Fields of earlier releases that no longer exist: alternative shard
#: dispatch paths and JQ kernels, every setting of which served
#: fingerprint-identical campaigns.  Saved configs still carry them, so
#: :meth:`CampaignConfig.from_dict` drops them whatever their value.
RETIRED_FIELDS = frozenset(
    {"parallel_shards", "dispatch", "vote_fanout", "jq_kernel"}
)


@dataclass(frozen=True)
class CampaignConfig:
    """Tunables of one campaign, across every serving layer.

    The first block mirrors :class:`EngineConfig` (see its docstring
    for per-field semantics); the second block mirrors
    :class:`ShardingConfig` with ``num_shards=1`` meaning "serve
    through the single scheduler".
    """

    budget: float
    expected_tasks: int | None = None
    capacity: int = 4
    batch_size: int = 25
    alpha: float = UNINFORMATIVE_PRIOR
    confidence_target: float = 0.97
    num_buckets: int = 50
    quantization: int | str | None = "auto"
    cache_max_entries: int | None = None
    frontier_pool_size: int = 10
    reestimate_every: int = 0
    reestimate_method: str = "one-coin"
    reestimate_rate: float = 0.3
    checkpoint_every: int = 0
    vote_latency: float = 1.0
    ingestion: str = "sync"
    ingest_max_pending: int = 10_000
    ingest_grace: float | str = 0.05
    ingest_producer_quota: float = 0.0
    telemetry: str = "off"
    trace_path: str | None = None
    metrics_interval: float = 1.0
    vote_source: str = "simulated"
    seed: int | None = None
    # -- sharding / routing (ShardingConfig) ---------------------------
    num_shards: int = 1
    routing_policy: str = "hash"
    rebalance_threshold: float = 0.25
    rebalance_max_moves: int = 2
    # -- network serving (repro serve / CampaignServer) ----------------
    serve_host: str = "127.0.0.1"
    serve_port: int = 8765
    # -- cross-process coordination (repro.engine.leases) --------------
    # A shared SQLite file through which N engine processes lease worker
    # seats (None = this engine owns its pool outright).  Keep it
    # separate from any per-engine checkpoint path: checkpoints replace
    # whole tables and must not clobber shared leases.
    coordinate_path: str | None = None
    lease_ttl: float = 30.0

    def __post_init__(self) -> None:
        if not 0 <= self.serve_port <= 65535:
            raise ValueError("serve_port must lie in [0, 65535]")
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        # Delegate validation to the configs this one subsumes; they
        # own the invariants, this class owns the unified surface.
        self.engine_config()
        ShardingConfig(
            self.num_shards,
            policy=self.routing_policy,
            rebalance_threshold=self.rebalance_threshold,
            rebalance_max_moves=self.rebalance_max_moves,
        )

    # ------------------------------------------------------------------
    # Views onto the subsumed configs
    # ------------------------------------------------------------------
    def engine_config(self) -> EngineConfig:
        return EngineConfig(**{f: getattr(self, f) for f in _ENGINE_FIELDS})

    def sharding_config(self) -> ShardingConfig | None:
        """The sharded layer's config, or ``None`` when ``num_shards``
        is 1 (single-scheduler serving)."""
        if self.num_shards == 1:
            return None
        return ShardingConfig(
            self.num_shards,
            policy=self.routing_policy,
            rebalance_threshold=self.rebalance_threshold,
            rebalance_max_moves=self.rebalance_max_moves,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, state: Mapping) -> "CampaignConfig":
        state = {k: v for k, v in state.items() if k not in RETIRED_FIELDS}
        known = {f.name for f in fields(cls)}
        unknown = set(state) - known
        if unknown:
            raise ValueError(
                f"unknown CampaignConfig fields {sorted(unknown)}"
            )
        return cls(**state)

    @classmethod
    def from_engine_config(
        cls,
        config: EngineConfig,
        sharding: ShardingConfig | None = None,
    ) -> "CampaignConfig":
        """Lift legacy ``EngineConfig`` (+ optional ``ShardingConfig``)
        into the unified config — the migration path for callers moving
        off the deprecated engine classes."""
        merged = {f: getattr(config, f) for f in _ENGINE_FIELDS}
        if sharding is not None:
            merged.update(
                num_shards=sharding.num_shards,
                routing_policy=sharding.policy,
                rebalance_threshold=sharding.rebalance_threshold,
                rebalance_max_moves=sharding.rebalance_max_moves,
            )
        return cls(**merged)


def _assert_defaults_match() -> None:
    """The unified config restates the subsumed configs' defaults so it
    reads as one coherent surface — but a default changed in
    :class:`EngineConfig`/:class:`ShardingConfig` and not here would
    silently hand facade users and shim users different campaigns.
    Fail at import instead."""
    own = {f.name: f.default for f in fields(CampaignConfig)}
    for f in fields(EngineConfig):
        if f.name != "budget" and own[f.name] != f.default:
            raise AssertionError(
                f"CampaignConfig.{f.name} default {own[f.name]!r} diverged "
                f"from EngineConfig's {f.default!r}"
            )
    sharding_map = {
        "policy": "routing_policy",
        "rebalance_threshold": "rebalance_threshold",
        "rebalance_max_moves": "rebalance_max_moves",
    }
    for f in fields(ShardingConfig):
        unified = sharding_map.get(f.name)
        if unified is not None and own[unified] != f.default:
            raise AssertionError(
                f"CampaignConfig.{unified} default {own[unified]!r} "
                f"diverged from ShardingConfig.{f.name}'s {f.default!r}"
            )


_assert_defaults_match()
