"""Where the traced run puts its wrappers, and how the per-layer
metrics are computed from the spans they record.

Every entry point is a public function or method of the program (or,
for a function a caller looks up in its own module, that module's
attribute, e.g. ``repro.engine.scheduler.allocate_budget``).  An entry
point the program no longer has is reported as absent; its metrics
then read 0.
"""

from __future__ import annotations

import time

from tracer import Tracer, stat

_S = "repro.engine.scheduler"
_C = "repro.engine.cache"


def _subsets_of(args, kwargs):
    return 2 ** len(args[0]) - 1


def _rows_of(args, kwargs):
    return len(args[0])


#: (span name, target, attribute, tag)
PROGRAM_WRAPPERS = (
    ("engine.run", "repro.engine.campaign:Campaign", "run", None),
    ("engine.run", "repro.engine.campaign:Campaign", "serve", None),
    ("engine.idle", "repro.engine.ingest:IntakeQueue", "wait_for_traffic", None),
    ("scheduler.admit", f"{_S}:CampaignScheduler", "admit", None),
    ("scheduler.substitute", f"{_S}:SubstituteIndex", "best", None),
    ("portfolio.allocate", _S, "allocate_budget", None),
    ("frontier.build", _S, "exact_frontier", None),
    ("frontier.build", "repro.frontier", "exact_frontier", None),
    ("cache.jq", f"{_C}:JQCache", "jq", None),
    ("cache.jq", f"{_C}:JQCache", "jq_batch", None),
    ("cache.all_subsets", f"{_C}:JQCache", "jq_all_subsets", None),
    ("quality.all_subsets", _C, "all_subsets_jq_bv", _subsets_of),
    ("quality.exact_batch", _C, "exact_jq_bv_batch", _rows_of),
    ("quality.estimate_batch", _C, "estimate_jq_batch", _rows_of),
    ("quality.stream", "repro.frontier", "streamed_frontier_jq", _subsets_of),
    ("online.add_vote", "repro.online:OnlineDecisionSession", "add_vote", None),
    ("online.posterior", "repro.online", "posterior_zero", None),
    ("state.assign", "repro.engine.state:WorkerRegistry", "assign", None),
    ("state.release", "repro.engine.state:WorkerRegistry", "release", None),
    ("state.record_vote", "repro.engine.state:WorkerRegistry", "record_vote", None),
    ("state.available_pool", "repro.engine.state:WorkerRegistry", "available_pool", None),
    ("estimation.reestimate", "repro.engine.state:WorkerRegistry", "reestimate", None),
    ("sharding.admit", "repro.engine.sharding:ShardedScheduler", "admit", None),
    ("sharding.route", "repro.engine.sharding:ShardedScheduler", "route", None),
    ("sharding.rebalance", "repro.engine.sharding:ShardedScheduler", "rebalance", None),
    ("sharding.open_round", "repro.engine.sharding:BudgetAllocator", "open_round", None),
    ("backends.save", "repro.engine.backends:SQLiteBackend", "save", None),
    ("backends.load", "repro.engine.backends:SQLiteBackend", "load", None),
    ("campaign.checkpoint", "repro.engine.campaign:Campaign", "checkpoint", None),
    ("campaign.resume", "repro.engine.campaign:Campaign", "resume", None),
    ("ingest.submit", "repro.engine.ingest:IntakeQueue", "submit", None),
    ("ingest.drain", "repro.engine.ingest:IntakeQueue", "drain", None),
    ("ingest.offers_for_worker", "repro.engine.ingest:AssignmentBook", "for_worker", None),
)

#: Request header carrying the client's request id, so server-side
#: handler spans can be matched to client-observed latencies.
REQUEST_ID_HEADER = "X-Request-Id"


def _request_id(args, kwargs):
    return args[0].headers.get(REQUEST_ID_HEADER)


SERVER_WRAPPERS = (
    ("server.vote", "repro.engine.server:CampaignServer", "apply_vote", None),
    ("server.submit", "repro.engine.server:CampaignServer", "submit_tasks", None),
    ("server.request", "repro.engine.server:_CampaignRequestHandler", "do_GET", _request_id),
    ("server.request", "repro.engine.server:_CampaignRequestHandler", "do_POST", _request_id),
)


def install(tracer: Tracer, server: bool = False) -> None:
    """Wrap every program entry point (plus the HTTP ones when
    ``server``) and count event-queue pops."""
    rows = PROGRAM_WRAPPERS + (SERVER_WRAPPERS if server else ())
    for name, target, attr, tag in rows:
        tracer.wrap(target, attr, name, tag)
    tracer.count("repro.engine.events:EventQueue", "pop", "engine.events")
    if server:
        _install_mailbox(tracer)


def _install_mailbox(tracer: Tracer) -> None:
    """Time how long a staged command waits for the serving loop: the
    handler's ``LoopMailbox.call`` minus the command's own run time."""

    def make(call):
        def wrapper(self, fn, *args, **kwargs):
            ran = []

            def timed():
                start = time.perf_counter()
                try:
                    return fn()
                finally:
                    ran.append(time.perf_counter() - start)

            start = time.perf_counter()
            try:
                return call(self, timed, *args, **kwargs)
            finally:
                waited = time.perf_counter() - start - sum(ran)
                tracer.sample("server.mailbox_wait", waited)

        return wrapper

    tracer.replace("repro.engine.server:LoopMailbox", "call", make)


def program_metrics(tracer: Tracer, extras: dict) -> dict:
    """Per-layer metrics of one traced program process.  ``extras``
    holds counters read from the program's own objects after the run
    (see ``program.py``); layers that did not run read 0."""
    s = tracer.summary()

    def get(name, key):
        return stat(s, name, key)

    def ratio(num, den):
        return num / den if den else 0.0

    admits = get("scheduler.admit", "calls")
    builds = get("frontier.build", "calls")
    kernel_s = sum(
        get(n, "inclusive_s")
        for n in ("quality.all_subsets", "quality.exact_batch",
                  "quality.estimate_batch", "quality.stream")
    )
    scored = sum(
        span.tag for span in tracer.spans
        if span.name.startswith("quality.") and span.tag
    )
    save_s = get("backends.save", "inclusive_s")
    checkpoint_s = get("campaign.checkpoint", "inclusive_s")
    cast, cancelled = extras.get("votes_cast", 0), extras.get("votes_cancelled", 0)
    completed = extras.get("completed", 0)
    hits, misses = extras.get("cache_hits", 0), extras.get("cache_misses", 0)
    posterior_calls = get("online.posterior", "calls")
    return {
        "engine.self_s": get("engine.run", "self_s"),
        "engine.events": float(tracer.counts.get("engine.events", 0)),
        "engine.votes_cancelled_ratio": ratio(cancelled, cast + cancelled),
        "scheduler.admit_calls": admits,
        "scheduler.admit_self_s": get("scheduler.admit", "self_s"),
        "scheduler.admit_p50_ms": get("scheduler.admit", "p50_ms"),
        "scheduler.admit_p99_ms": get("scheduler.admit", "p99_ms"),
        "scheduler.substitute_calls": get("scheduler.substitute", "calls"),
        "scheduler.substitute_s": get("scheduler.substitute", "inclusive_s"),
        "scheduler.substitutions": extras.get("substitutions", 0),
        "scheduler.dropped_seats": extras.get("dropped_seats", 0),
        "scheduler.deferred": extras.get("deferred", 0),
        "scheduler.frontier_memo_hit_ratio": ratio(max(admits - builds, 0), admits),
        "portfolio.allocate_calls": get("portfolio.allocate", "calls"),
        "portfolio.allocate_s": get("portfolio.allocate", "inclusive_s"),
        "portfolio.allocate_p99_ms": get("portfolio.allocate", "p99_ms"),
        "frontier.builds": builds,
        "frontier.build_self_s": get("frontier.build", "self_s"),
        "frontier.build_p50_ms": get("frontier.build", "p50_ms"),
        "cache.lookups": float(hits + misses),
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.entries": extras.get("cache_entries", 0),
        "cache.jq_s": get("cache.jq", "inclusive_s"),
        "cache.all_subsets_self_s": get("cache.all_subsets", "self_s"),
        "quality.all_subsets_s": get("quality.all_subsets", "inclusive_s"),
        "quality.exact_batch_s": get("quality.exact_batch", "inclusive_s"),
        "quality.estimate_batch_s": get("quality.estimate_batch", "inclusive_s"),
        "quality.stream_s": get("quality.stream", "inclusive_s"),
        "quality.subsets_scored": float(scored),
        "quality.subsets_per_s": ratio(scored, kernel_s),
        "online.add_vote_calls": get("online.add_vote", "calls"),
        "online.add_vote_s": get("online.add_vote", "inclusive_s"),
        "online.posterior_calls": posterior_calls,
        "online.posterior_s": get("online.posterior", "inclusive_s"),
        "online.votes_per_task": ratio(extras.get("votes_used", 0), completed),
        "online.early_stop_ratio": ratio(extras.get("early_stopped", 0), completed),
        "state.assign_s": get("state.assign", "inclusive_s"),
        "state.release_s": get("state.release", "inclusive_s"),
        "state.record_vote_s": get("state.record_vote", "inclusive_s"),
        "state.available_pool_s": get("state.available_pool", "inclusive_s"),
        "estimation.reestimate_calls": get("estimation.reestimate", "calls"),
        "estimation.reestimate_s": get("estimation.reestimate", "inclusive_s"),
        "estimation.reestimate_p99_ms": get("estimation.reestimate", "p99_ms"),
        "estimation.answers": extras.get("answers", 0),
        "sharding.admit_self_s": get("sharding.admit", "self_s"),
        "sharding.route_s": get("sharding.route", "inclusive_s"),
        "sharding.rebalance_s": get("sharding.rebalance", "inclusive_s"),
        "sharding.open_round_s": get("sharding.open_round", "inclusive_s"),
        "sharding.rebalance_moves": extras.get("rebalance_moves", 0),
        "backends.save_calls": get("backends.save", "calls"),
        "backends.save_s": save_s,
        "backends.save_max_ms": get("backends.save", "max_ms"),
        "backends.state_bytes": extras.get("state_bytes", 0),
        "backends.load_s": get("backends.load", "inclusive_s"),
        "campaign.checkpoint_s": checkpoint_s,
        "campaign.snapshot_s": max(checkpoint_s - save_s, 0.0),
        "campaign.resume_s": get("campaign.resume", "inclusive_s"),
        "ingest.submit_s": get("ingest.submit", "inclusive_s"),
        "ingest.drain_s": get("ingest.drain", "inclusive_s"),
        "ingest.overflows": extras.get("overflows", 0),
        "ingest.offers_for_worker_s": get("ingest.offers_for_worker", "inclusive_s"),
    }


def self_time_by_layer(tracer: Tracer) -> dict[str, float]:
    """Exclusive seconds per layer (the span-name prefix), for the
    printout.  ``engine.idle`` is the serving loop waiting for traffic."""
    out: dict[str, float] = {}
    for name, row in tracer.summary().items():
        layer = "idle" if name == "engine.idle" else name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out
