"""Every metric the benchmark reports: name, unit, direction, and for a
per-layer metric the end-to-end metric and workloads it should move.

``BENCHMARK.json`` at the repository root restates the names, units,
directions and bounds; the self-test checks that the two agree.

End-to-end metrics are reported by every workload, each with the
meaning its workload gives it (see ``README.md`` in this directory):
the throughput counts tasks, except on ``plan`` where it counts juries
scored; a latency sample is the time to the next batch of results
in-process, one ``POST /votes`` over HTTP and one ``exact_frontier``
call on ``plan``.  In-process throughput and latency are given at the
host's reference speed (``hostspeed.py``).  Latency is reported as its
mean, not its median:
the host's speed switches between two levels for seconds at a time, and
a median of samples from both levels lands on either level by chance
(28% run-to-run spread on ``steady``, against 15% for the mean).
"""

from __future__ import annotations

#: name -> (unit, better, bound).  Timings get the widest bound allowed:
#: on a host whose cores are shared with other tenants, back-to-back
#: repetitions of identical work differ by up to 40%.  Realized accuracy
#: over HTTP rests on ~150 tasks a run (binomial spread ~7%), so the
#: tight quality guard is the predicted ``mean_jq``.
END_TO_END = {
    "throughput_per_s": ("1/s", "higher", 0.25),
    "latency_mean_ms": ("ms", "lower", 0.25),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "accuracy": ("fraction", "higher", 0.2),
    "mean_jq": ("fraction", "higher", 0.05),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.2),
}

_T, _MEAN, _TAIL = "throughput_per_s", "latency_mean_ms", "latency_tail_ms"

#: name -> (unit, better, moves: ((end-to-end metric, workloads), ...))
PER_LAYER = {
    # engine: the event loop itself, outside every wrapped layer
    "engine.self_s": ("s", "lower", ((_T, "burst steady"),)),
    "engine.events": ("count", "lower", ((_T, "burst steady"),)),
    "engine.votes_cancelled_ratio": ("fraction", "lower", ((_T, "burst steady"),)),
    # scheduler
    "scheduler.admit_calls": ("count", "lower", ((_T, "steady burst"),)),
    "scheduler.admit_self_s": ("s", "lower", ((_T, "steady burst"),)),
    "scheduler.admit_p50_ms": ("ms", "lower", ((_T, "steady burst"),)),
    "scheduler.admit_p99_ms": (
        "ms", "lower", ((_T, "steady burst"), (_TAIL, "http")),
    ),
    "scheduler.substitute_calls": ("count", "lower", ((_T, "steady burst"),)),
    "scheduler.substitute_s": ("s", "lower", ((_T, "steady burst"),)),
    "scheduler.substitutions": ("count", "lower", ((_T, "steady burst"),)),
    "scheduler.dropped_seats": ("count", "lower", ((_T, "steady burst"),)),
    "scheduler.deferred": ("count", "lower", ((_T, "steady burst"),)),
    "scheduler.frontier_memo_hit_ratio": (
        "fraction", "higher", ((_T, "steady burst"),),
    ),
    # portfolio (budget split across a batch)
    "portfolio.allocate_calls": ("count", "lower", ((_T, "burst steady"),)),
    "portfolio.allocate_s": ("s", "lower", ((_T, "burst steady"),)),
    "portfolio.allocate_p99_ms": ("ms", "lower", ((_T, "burst steady"),)),
    # frontier builds
    "frontier.builds": ("count", "lower", ((_T, "churn"), (_MEAN, "plan"))),
    "frontier.build_self_s": ("s", "lower", ((_T, "churn"), (_MEAN, "plan"))),
    "frontier.build_p50_ms": ("ms", "lower", ((_T, "churn"), (_MEAN, "plan"))),
    # JQ cache
    "cache.lookups": ("count", "lower", ((_T, "churn"), ("peak_rss_mb", "churn"))),
    "cache.hit_ratio": ("fraction", "higher", ((_T, "churn"),)),
    "cache.entries": ("count", "lower", (("peak_rss_mb", "churn"),)),
    "cache.jq_s": ("s", "lower", ((_T, "churn"),)),
    "cache.all_subsets_self_s": ("s", "lower", ((_T, "churn"),)),
    # JQ kernels
    "quality.all_subsets_s": ("s", "lower", ((_T, "churn"),)),
    "quality.exact_batch_s": ("s", "lower", ((_T, "churn"),)),
    "quality.estimate_batch_s": ("s", "lower", ((_T, "churn"),)),
    "quality.stream_s": ("s", "lower", ((_MEAN, "plan"),)),
    "quality.subsets_scored": ("count", "lower", ((_MEAN, "plan"), (_T, "churn"))),
    "quality.subsets_per_s": ("1/s", "higher", ((_MEAN, "plan"), (_T, "churn"))),
    # online decisions and the BV posterior
    "online.add_vote_calls": ("count", "lower", ((_T, "burst steady"),)),
    "online.add_vote_s": ("s", "lower", ((_T, "burst steady"),)),
    "online.posterior_calls": ("count", "lower", ((_T, "burst steady"),)),
    "online.posterior_s": ("s", "lower", ((_T, "burst steady"),)),
    "online.votes_per_task": ("count", "lower", ((_T, "burst steady"), ("accuracy", "burst steady"))),
    "online.early_stop_ratio": ("fraction", "higher", ((_T, "burst steady"), ("accuracy", "burst steady"))),
    # worker registry
    "state.assign_s": ("s", "lower", ((_T, "burst steady"),)),
    "state.release_s": ("s", "lower", ((_T, "burst steady"),)),
    "state.record_vote_s": ("s", "lower", ((_T, "burst steady"),)),
    "state.available_pool_s": ("s", "lower", ((_T, "burst steady"),)),
    # quality re-estimation (EM)
    "estimation.reestimate_calls": ("count", "lower", ((_T, "churn"),)),
    "estimation.reestimate_s": ("s", "lower", ((_T, "churn"),)),
    "estimation.reestimate_p99_ms": ("ms", "lower", ((_T, "churn"), (_TAIL, "churn"))),
    "estimation.answers": ("count", "lower", ((_T, "churn"),)),
    # sharding
    "sharding.admit_self_s": ("s", "lower", ((_T, "burst"),)),
    "sharding.route_s": ("s", "lower", ((_T, "burst"),)),
    "sharding.rebalance_s": ("s", "lower", ((_T, "burst"),)),
    "sharding.open_round_s": ("s", "lower", ((_T, "burst"),)),
    "sharding.rebalance_moves": ("count", "lower", ((_T, "burst"),)),
    # persistence
    "backends.save_calls": ("count", "lower", ((_T, "churn"),)),
    "backends.save_s": ("s", "lower", ((_T, "churn"), (_TAIL, "churn"))),
    "backends.save_max_ms": ("ms", "lower", ((_TAIL, "churn"),)),
    "backends.state_bytes": ("bytes", "lower", ((_T, "churn"),)),
    "backends.load_s": ("s", "lower", ((_T, "churn"), (_TAIL, "churn"))),
    "campaign.checkpoint_s": ("s", "lower", ((_T, "churn"),)),
    "campaign.snapshot_s": ("s", "lower", ((_T, "churn"),)),
    "campaign.resume_s": ("s", "lower", ((_T, "churn"), (_TAIL, "churn"))),
    # async intake and the open-offer book
    "ingest.submit_s": ("s", "lower", ((_T, "http"),)),
    "ingest.drain_s": ("s", "lower", ((_T, "http"),)),
    "ingest.overflows": ("count", "lower", ((_T, "http"),)),
    "ingest.offers_for_worker_s": ("s", "lower", ((_T, "http"),)),
    # HTTP serving (client-observed and server-side, matched per request)
    "server.requests_per_s": ("1/s", "higher", ((_T, "http"),)),
    "server.assign_p50_ms": ("ms", "lower", ((_T, "http"),)),
    "server.assign_p99_ms": ("ms", "lower", ((_T, "http"),)),
    "server.late_votes": ("count", "lower", ((_T, "http"),)),
    "server.vote_handler_p50_ms": ("ms", "lower", ((_MEAN, "http"),)),
    "server.vote_handler_p99_ms": ("ms", "lower", ((_TAIL, "http"),)),
    "server.mailbox_wait_p99_ms": ("ms", "lower", ((_TAIL, "http"),)),
    "server.submit_handler_p50_ms": ("ms", "lower", ((_T, "http"),)),
    "server.vote_transport_p50_ms": ("ms", "lower", ((_MEAN, "http"), (_T, "http"))),
    "server.vote_transport_p99_ms": ("ms", "lower", ((_TAIL, "http"),)),
    "server.assign_transport_p50_ms": ("ms", "lower", ((_T, "http"),)),
    # what tracing itself costs: untraced / traced throughput
    "trace.overhead_ratio": ("ratio", "lower", ()),
}
