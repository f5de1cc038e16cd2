"""The process that runs the program under measurement.

    python3 perfbench/program.py setup|run|serve WORKLOAD SEED SECONDS TRACE OUTDIR

``run.py`` starts this as a fresh interpreter, so set-up time and peak
RSS belong to the program alone.  The process prints ``READY`` once it
is set up (for ``serve``: ``READY <port>`` once it listens), and, for
``run``/``serve``, one ``RESULT <json>`` line at the end.  ``setup``
stops right after ``READY``.

``run`` serves the in-process workloads (``steady``, ``burst``,
``churn``, ``plan``): it repeats the workload's unit of work with fresh
seeded inputs until SECONDS of measured time have passed, and between
its timed steps it times the host-speed reference loop (``hostspeed.py``;
not part of the measured time).  With TRACE=1
it does that twice, SECONDS/2 each: untraced, then with the layer
wrappers installed.  ``serve`` is the HTTP launcher of the ``http``
workload; its client fleet lives in ``fleet.py``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import hostspeed
import inputs
import layers
from tracer import Tracer

clock = time.perf_counter

#: In-process campaign workloads.  ``tasks`` is one campaign; a run
#: repeats campaigns (fresh pool and task stream each) until its
#: measured time is up.  A latency sample is the time to the next
#: ``interval`` results.  Intervals are short enough for a run to give
#: over a hundred samples, and long enough that the slow ones (holding
#: a 200-task admission in burst, an EM pass, checkpoint or frontier
#: build in churn) make up well over a tenth of them, so that the p90
#: tail lies inside the slow samples rather than on their edge.
CAMPAIGNS = {
    "steady": {
        "workers": 60, "tasks": 3000, "per_task": 0.35, "interval": 25,
        "config": {"capacity": 6, "batch_size": 25, "confidence_target": 0.95},
    },
    "burst": {
        "workers": 64, "tasks": 1000, "per_task": 0.25, "interval": 50,
        "config": {"capacity": 8, "batch_size": 200, "num_shards": 4},
    },
    "churn": {
        "workers": 60, "tasks": 500, "per_task": 0.35, "interval": 12,
        "config": {
            "capacity": 6, "batch_size": 25, "reestimate_every": 100,
            "frontier_pool_size": 14, "checkpoint_every": 100,
        },
        "resume_midway": True,
    },
}

#: The planning call: ``exact_frontier`` over one seeded pool of this
#: size (past the dense kernel's 14-worker bound, so it streams).
PLAN = {"workers": 16, "budget_share": 0.35, "simulated_tasks": 4000}

#: The HTTP campaign.  ``max_tasks`` only caps what the client may
#: submit; the fleet stops submitting when its time is up.
HTTP = {
    "workers": 60, "max_tasks": 20000, "per_task": 0.35,
    "config": {"capacity": 6, "batch_size": 25, "confidence_target": 0.95},
}


def repetition(work: int, latencies: list[float]) -> dict:
    """One unit of work (a campaign, a planning call): how much it did,
    and its latency samples in seconds."""
    return {"work": work, "seconds": sum(latencies), "latencies_s": latencies}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ready(*extra) -> None:
    print(" ".join(("READY",) + tuple(str(x) for x in extra)), flush=True)


# ----------------------------------------------------------------------
# In-process campaigns
# ----------------------------------------------------------------------
class CampaignRun:
    """One measured phase of a campaign workload: totals, per-campaign
    latencies, correctness violations and layer counters."""

    def __init__(self, name: str, seed: int, outdir: str) -> None:
        self.name = name
        self.spec = CAMPAIGNS[name]
        self.seed = seed
        self.outdir = outdir
        self.rep = 0
        self.seconds = 0.0
        self.repetitions: list[dict] = []
        self.totals = dict.fromkeys(
            ("submitted", "completed", "correct", "scored", "funded",
             "jq_sum", "votes_cast", "votes_cancelled", "votes_used",
             "early_stopped", "substitutions", "dropped_seats", "deferred",
             "cache_hits", "cache_misses", "cache_entries", "answers",
             "state_bytes", "rebalance_moves", "campaigns"),
            0,
        )
        self.violations: list[str] = []
        self.speed = hostspeed.Sampler()

    def open(self):
        """Build the next campaign's inputs, open it and submit."""
        from repro.engine import Campaign, CampaignConfig, SQLiteBackend

        spec, rep = self.spec, self.rep
        pool = inputs.make_pool(
            inputs.pool_rows(self.seed, spec["workers"], stream=rep)
        )
        tasks = inputs.make_tasks(self.seed, spec["tasks"], stream=rep)
        config = CampaignConfig(
            budget=spec["per_task"] * spec["tasks"], seed=self.seed + rep,
            **spec["config"],
        )
        backend = None
        if spec["config"].get("checkpoint_every"):
            self._remove_state()
            backend = SQLiteBackend(self._state_path())
        campaign = Campaign.open(pool, config, backend=backend)
        campaign.submit(tasks)
        self.rep += 1
        return campaign

    def _state_path(self) -> str:
        return os.path.join(self.outdir, f"{self.name}-{os.getpid()}.db")

    def _remove_state(self) -> None:
        """Delete the closed campaign's SQLite files, noting their size."""
        path = self._state_path()
        if os.path.exists(path):
            self.totals["state_bytes"] = max(
                self.totals["state_bytes"], os.path.getsize(path)
            )
        for name in (path, path + "-wal", path + "-shm"):
            if os.path.exists(name):
                os.remove(name)

    def serve(self, campaign) -> None:
        """Run ``campaign`` to completion ``interval`` results at a
        time, timing each step.  ``churn`` is stopped at the first step
        past its midpoint (252 of 500 results), checkpointed, closed and
        finished through ``Campaign.resume``; the restart is part of the
        step that follows it."""
        from repro.engine import Campaign, SQLiteBackend

        step = self.spec["interval"]
        half = self.spec["tasks"] // 2
        resume = self.spec.get("resume_midway", False)
        latencies = []
        while not campaign.done:
            start = clock()
            done = campaign.metrics.completed
            if resume and done >= half:
                resume = False
                campaign.checkpoint()
                campaign.close()
                campaign = Campaign.resume(SQLiteBackend(self._state_path()))
            campaign.run(until=done + step)
            if campaign.metrics.completed > done or not latencies:
                latencies.append(clock() - start)
            else:
                # The last step only finalizes: it belongs to the one before.
                latencies[-1] += clock() - start
            self.speed.tick()
        if resume:
            self.violations.append(f"{self.name}: finished before its midpoint")
        self.repetitions.append(
            repetition(campaign.metrics.completed, latencies)
        )
        self.seconds += sum(latencies)
        self._account(campaign)
        campaign.close()
        self._remove_state()

    def _account(self, campaign) -> None:
        m = campaign.metrics
        config = campaign.config
        t = self.totals
        label = f"{self.name} campaign {self.rep - 1}"
        if m.completed != m.submitted or m.submitted != self.spec["tasks"]:
            self.violations.append(
                f"{label}: completed {m.completed} of {m.submitted} submitted "
                f"({self.spec['tasks']} generated)"
            )
        if m.peak_worker_load > config.capacity:
            self.violations.append(
                f"{label}: peak load {m.peak_worker_load} > capacity {config.capacity}"
            )
        if m.total_spend > config.budget + 1e-6:
            self.violations.append(
                f"{label}: net spend {m.total_spend:.6f} > budget {config.budget:.6f}"
            )
        funded = [r for r in m.records if r.reason != "unfunded"]
        scored = [r for r in funded if r.correct is not None]
        t["campaigns"] += 1
        t["submitted"] += m.submitted
        t["completed"] += m.completed
        t["scored"] += len(scored)
        t["correct"] += sum(1 for r in scored if r.correct)
        t["funded"] += len(funded)
        t["jq_sum"] += sum(r.predicted_jq for r in funded)
        t["votes_cast"] += m.votes_cast
        t["votes_cancelled"] += m.votes_cancelled
        t["votes_used"] += sum(r.votes_used for r in m.records)
        t["early_stopped"] += m.early_stopped
        scheduler = campaign.engine.scheduler
        stats = getattr(scheduler, "stats", None)
        for key in ("substitutions", "dropped_seats", "deferred"):
            t[key] += getattr(stats, key, 0)
        t["rebalance_moves"] += getattr(scheduler, "migrations", 0)
        cache = m.cache_stats
        if cache is not None:
            t["cache_hits"] += cache.hits
            t["cache_misses"] += cache.misses
            t["cache_entries"] += cache.entries
        t["answers"] += campaign.registry.answers.num_answers

    def extras(self) -> dict:
        """Layer counters read from the program's objects: totals over
        the phase, except sizes (cache entries, answer matrix), which
        are per campaign."""
        out = dict(self.totals)
        n = max(out.pop("campaigns"), 1)
        for key in ("cache_entries", "answers"):
            out[key] /= n
        return out

    def result(self) -> dict:
        t = self.totals
        return {
            "seconds": self.seconds,
            "attempted": t["submitted"],
            "failed": t["submitted"] - t["completed"],
            "repetitions": self.repetitions,
            "accuracy": t["correct"] / t["scored"] if t["scored"] else 0.0,
            "mean_jq": t["jq_sum"] / t["funded"] if t["funded"] else 0.0,
            "units": f"{t['campaigns']} campaigns",
            "violations": self.violations,
            "reference_s": self.speed.samples,
        }


def campaign_phase(name, seed, seconds, outdir, first=None, tracer=None) -> dict:
    phase = CampaignRun(name, seed, outdir)
    if first is not None:
        phase.rep = 1
    campaign = first or phase.open()
    phase.speed.tick(force=True)
    while True:
        phase.serve(campaign)
        if phase.seconds >= seconds:
            break
        campaign = phase.open()
    phase.speed.tick(force=True)
    out = phase.result()
    if tracer is not None:
        out["layers"] = layers.program_metrics(tracer, phase.extras())
    return out


# ----------------------------------------------------------------------
# Planning: exact_frontier
# ----------------------------------------------------------------------
def plan_pool(seed: int, call: int):
    return inputs.make_pool(
        inputs.frontier_pool_rows(seed, PLAN["workers"], stream=call)
    )


def check_frontier(frontier, pool) -> list[str]:
    """JQ rises along the frontier, and every point's JQ equals the
    scalar objective's JQ of that jury."""
    from repro.core import Jury
    from repro.selection import JQObjective

    problems = []
    points = frontier.points
    if not points:
        return ["empty frontier"]
    for a, b in zip(points, points[1:]):
        if not (b.jq > a.jq and b.cost >= a.cost):
            problems.append(f"frontier not increasing at cost {b.cost:.4f}")
    scalar = JQObjective()
    by_id = {w.worker_id: w for w in pool.workers}
    for point in points:
        expected = scalar(Jury(by_id[w] for w in point.worker_ids))
        if abs(expected - point.jq) > 1e-12:
            problems.append(
                f"frontier JQ {point.jq!r} != scalar JQ {expected!r} "
                f"for {point.worker_ids}"
            )
    return problems


def simulate_accuracy(seed: int, call: int, jury) -> tuple[int, int]:
    """Bayesian-voting accuracy of the planned jury on seeded tasks:
    each member votes correctly with its quality."""
    import numpy as np
    from repro.voting.bayesian import posterior_zero

    count = PLAN["simulated_tasks"]
    rng = np.random.default_rng([seed, call, 4])
    qualities = np.array(jury.qualities)
    truths = rng.integers(0, 2, size=count)
    right = rng.random((count, len(qualities))) < qualities
    correct = 0
    for truth, row in zip(truths, right):
        votes = np.where(row, truth, 1 - truth)
        answer = 0 if posterior_zero(votes, qualities) >= 0.5 else 1
        correct += int(answer == truth)
    return correct, count


def plan_phase(seed, seconds, first_pool=None, tracer=None) -> dict:
    from repro import frontier as frontier_module
    from repro.core import Jury
    from repro.selection import JQObjective

    latencies, violations = [], []
    correct = scored = 0
    jq_sum = 0.0
    call = 0
    pool = first_pool
    speed = hostspeed.Sampler()
    while sum(latencies) < seconds or not latencies:
        if pool is None:
            pool = plan_pool(seed, call)
        speed.tick(force=True)
        start = clock()
        frontier = frontier_module.exact_frontier(pool, JQObjective())
        latencies.append(clock() - start)
        speed.tick(force=True)
        violations += check_frontier(frontier, pool)
        budget = PLAN["budget_share"] * float(sum(pool.costs))
        point = frontier.best_under(budget)
        if point is None:
            violations.append(f"no frontier point under budget {budget:.3f}")
        else:
            by_id = {w.worker_id: w for w in pool.workers}
            jury = Jury(by_id[w] for w in point.worker_ids)
            jq_sum += point.jq
            hit, count = simulate_accuracy(seed, call, jury)
            correct += hit
            scored += count
        call += 1
        pool = None
    out = {
        "seconds": sum(latencies),
        "attempted": call,
        "failed": 0,
        "repetitions": [repetition(2 ** PLAN["workers"] - 1, [s]) for s in latencies],
        "accuracy": correct / scored if scored else 0.0,
        "mean_jq": jq_sum / call,
        "units": f"{call} exact_frontier calls",
        "violations": violations,
        "reference_s": speed.samples,
    }
    if tracer is not None:
        out["layers"] = layers.program_metrics(tracer, {})
    return out


# ----------------------------------------------------------------------
# HTTP launcher
# ----------------------------------------------------------------------
def http_config(seed: int):
    from repro.engine import CampaignConfig

    return CampaignConfig(
        budget=HTTP["per_task"] * HTTP["max_tasks"],
        expected_tasks=HTTP["max_tasks"],
        vote_source="external",
        ingestion="async",
        seed=seed,
        **HTTP["config"],
    )


def serve(seed: int, traced: bool, setup_only: bool, outdir: str) -> None:
    tracer = None
    if traced:
        tracer = Tracer()
        layers.install(tracer, server=True)
    from repro.engine import Campaign, CampaignServer

    pool = inputs.make_pool(inputs.pool_rows(seed, HTTP["workers"]))
    campaign = Campaign.open(pool, http_config(seed))
    server = CampaignServer(campaign, host="127.0.0.1", port=0)
    ready(server.port)
    if setup_only:
        server.shutdown()
        campaign.close()
        return
    try:
        metrics = server.serve()
    finally:
        server.shutdown()
    config = campaign.config
    violations = []
    if metrics.completed != metrics.submitted:
        violations.append(
            f"http: completed {metrics.completed} of {metrics.submitted}"
        )
    if metrics.peak_worker_load > config.capacity:
        violations.append(
            f"http: peak load {metrics.peak_worker_load} > capacity {config.capacity}"
        )
    if metrics.total_spend > config.budget + 1e-6:
        violations.append(
            f"http: net spend {metrics.total_spend:.6f} > budget {config.budget:.6f}"
        )
    funded = [r for r in metrics.records if r.reason != "unfunded"]
    scored = [r for r in funded if r.correct is not None]
    out = {
        "completed": metrics.completed,
        "accuracy": sum(r.correct for r in scored) / len(scored) if scored else 0.0,
        "mean_jq": sum(r.predicted_jq for r in funded) / len(funded) if funded else 0.0,
        "violations": violations,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        intake = campaign.intake_stats
        extras = {
            "votes_cast": metrics.votes_cast,
            "votes_cancelled": metrics.votes_cancelled,
            "completed": metrics.completed,
            "votes_used": sum(r.votes_used for r in metrics.records),
            "early_stopped": metrics.early_stopped,
            "overflows": getattr(intake, "overflows", 0),
            "answers": campaign.registry.answers.num_answers,
        }
        stats = getattr(campaign.engine.scheduler, "stats", None)
        for key in ("substitutions", "dropped_seats", "deferred"):
            extras[key] = getattr(stats, key, 0)
        if metrics.cache_stats is not None:
            extras["cache_hits"] = metrics.cache_stats.hits
            extras["cache_misses"] = metrics.cache_stats.misses
            extras["cache_entries"] = metrics.cache_stats.entries
        out["layers"] = layers.program_metrics(tracer, extras)
        out["self_by_layer"] = layers.self_time_by_layer(tracer)
        out["absent"] = tracer.absent
        out["handler_ms"] = {
            span.tag: span.duration * 1e3
            for span in tracer.spans
            if span.name == "server.request" and span.tag
        }
        out["server_ms"] = {
            name: [d * 1e3 for d in row["durations"]]
            for name, row in tracer.summary().items()
            if name in ("server.vote", "server.submit")
        }
        out["mailbox_wait_ms"] = [
            w * 1e3 for w in tracer.samples.get("server.mailbox_wait", [])
        ]
        tracer.write(os.path.join(outdir, f"spans-http-server-{seed}.csv.gz"))
    campaign.close()
    print("RESULT " + json.dumps(out), flush=True)


# ----------------------------------------------------------------------
def main(argv) -> int:
    role, workload, seed, seconds, trace, outdir = argv
    seed, seconds, traced = int(seed), float(seconds), trace == "1"
    if role == "serve":
        serve(seed, traced, False, outdir)
        return 0
    if workload == "http":
        serve(seed, False, True, outdir)
        return 0

    if workload == "plan":
        first = plan_pool(seed, 0)
    else:
        first = CampaignRun(workload, seed, outdir).open()
    ready()
    if role == "setup":
        if workload != "plan":
            first.close()
        return 0

    def measure(secs, first=None, tracer=None):
        if workload == "plan":
            return plan_phase(seed, secs, first, tracer)
        return campaign_phase(workload, seed, secs, outdir, first, tracer)

    if not traced:
        phases = [measure(seconds, first)]
    else:
        if workload != "plan":
            # Warm up first, so the cold first campaign of the process
            # does not count against the untraced phase only.
            measure(0.0, first)
        phases = [measure(seconds / 2)]
        tracer = Tracer()
        layers.install(tracer)
        traced_phase = measure(seconds / 2, tracer=tracer)
        traced_phase["self_by_layer"] = layers.self_time_by_layer(tracer)
        traced_phase["absent"] = tracer.absent
        tracer.uninstall()
        tracer.write(os.path.join(outdir, f"spans-{workload}-{seed}.csv.gz"))
        phases.append(traced_phase)
    print("RESULT " + json.dumps({"phases": phases, "peak_rss_mb": peak_rss_mb()}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
