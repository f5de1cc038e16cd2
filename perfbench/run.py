"""Campaign benchmark of record: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is generated from ``--seed`` alone and runs in fresh
processes (``program.py``), so set-up time and peak RSS are the
program's own.  Workloads:

* ``steady`` - one scheduler, small batches, simulated votes; the
  ROADMAP's tasks/s target path.  Frontier builds are rare (the memo
  answers most batches), so frontier, kernel, estimation and
  persistence changes should not move it.  Not in ``BENCHMARK.json``:
  ``burst`` passes through the same layers, and three workloads leave
  room for runs long enough to be steady (see ``README.md``).
* ``burst`` - four shards, batches of 200; the only workload through
  sharding, and the one where budget allocation dominates.
* ``churn`` - re-estimation every 100 tasks, 14-worker frontier pools
  (dense JQ kernel), SQLite checkpoints, and a stop at the midpoint
  finished through ``Campaign.resume``.
* ``http`` - a ``CampaignServer`` process driven by a closed-loop fleet
  of two keep-alive clients; the only workload through the server and
  the async intake.
* ``plan`` - ``exact_frontier`` over a 16-worker pool, past the dense
  kernel's bound, so it runs the streamed lattice sweep.  Not in
  ``BENCHMARK.json``: its calls are too long for the run length the
  other four need (see ``README.md``).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run measures untraced and
then traced (``--seconds`` / 2 each) and reports the per-layer metrics
and ``trace.overhead_ratio``.  A broken correctness check fails the
run (exit code 1, ``"correct": false``, no metrics).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import queue
import subprocess
import sys
import threading
import time

import hostspeed
import inputs
import metrics as registry
import program
import stats
from fleet import Fleet

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("steady", "burst", "churn", "http", "plan")
#: Percentile reported as ``latency_tail_ms``: fixed per workload so
#: that runs compare like with like, at a level every run at today's
#: speed has ten samples beyond (lowered, and labelled so, when a run
#: has fewer).  ``None``: a ``plan`` run makes two or three calls, so
#: the slowest one.
TAIL = {"steady": 90.0, "burst": 90.0, "churn": 90.0, "http": 95.0, "plan": None}
#: Extra fresh processes that only set up, for the ``setup_s`` median.
SETUP_PROBES = 4
#: Everything, set-up included, must end well inside the 180 s limit.
DEADLINE_S = 165.0

clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark could not run the workload."""


class Child:
    """A program process whose stdout lines are read on a thread."""

    def __init__(self, args, env, deadline) -> None:
        self.deadline = deadline
        self.started = clock()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "program.py"), *map(str, args)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str) -> str:
        """The rest of the next line starting with ``prefix``."""
        while True:
            remaining = self.deadline - clock()
            try:
                line = self.lines.get(timeout=max(remaining, 0.01))
            except queue.Empty:
                raise BenchError(f"timed out waiting for {prefix} from {self.proc.args}")
            if line is None:
                raise BenchError(
                    f"{self.proc.args[2:]} exited with {self.proc.wait()} before {prefix}"
                )
            if line.startswith(prefix):
                return line[len(prefix):].strip()

    def finish(self) -> None:
        try:
            self.proc.wait(timeout=max(self.deadline - clock(), 1.0))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"{self.proc.args[2:]} did not exit")
        self.reader.join(timeout=5.0)
        if self.proc.returncode != 0:
            raise BenchError(f"{self.proc.args[2:]} exited with {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def program_env(root: str) -> dict:
    """The environment of every program process: ``src/`` on the path,
    and no ``REPRO_ENGINE_FORCE_*`` toggle that could change what is
    measured."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_ENGINE_FORCE_")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_identity(root: str) -> dict:
    """Git commit when the checkout is a repository, and a digest of
    the program's source either way."""
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as f:
                    commit = f.read().strip()
        else:
            commit = ref
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16]}


def numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "unavailable"


# ----------------------------------------------------------------------
def setup_probes(workload, seed, env, outdir, deadline) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        child = Child(("setup", workload, seed, 0, 0, outdir), env, deadline)
        try:
            child.expect("READY")
            samples.append(clock() - child.started)
            child.finish()
        finally:
            child.kill()
    return samples


def run_program(workload, seed, seconds, trace, env, outdir, deadline):
    child = Child(("run", workload, seed, seconds, trace, outdir), env, deadline)
    try:
        child.expect("READY")
        setup = clock() - child.started
        result = json.loads(child.expect("RESULT"))
        child.finish()
    finally:
        child.kill()
    result["setup_s"] = setup
    return result


def run_http_phase(seed, seconds, traced, env, outdir, deadline) -> dict:
    spec = program.HTTP
    child = Child(("serve", "http", seed, seconds, int(traced), outdir), env, deadline)
    try:
        port = int(child.expect("READY"))
        setup = clock() - child.started
        fleet = Fleet(port, seed, seconds, spec["max_tasks"],
                      inputs.pool_rows(seed, spec["workers"]))
        elapsed = fleet.run()
        fleet.close_intake()
        served = json.loads(child.expect("RESULT"))
        child.finish()
    finally:
        child.kill()
    violations = list(served["violations"]) + fleet.errors[:5]
    final = fleet.final_status
    if not final or final.get("completed") != fleet.next_task or fleet.next_task == 0:
        violations.append(
            f"http: final /status shows {final.get('completed')} completed "
            f"of {fleet.next_task} submitted"
        )
    if served["completed"] != fleet.next_task:
        violations.append(
            f"http: server completed {served['completed']} of {fleet.next_task}"
        )
    votes = [s for _, s in fleet.latency.get("vote", [])]
    requests = sum(len(v) for v in fleet.latency.values())
    completed, window_s = fleet.window or (0, elapsed)
    phase = {
        "seconds": window_s,
        "repetitions": [{"work": completed, "seconds": window_s,
                         "latencies_s": votes}],
        "attempted": fleet.attempted,
        "failed": fleet.failed,
        "accuracy": served["accuracy"],
        "mean_jq": served["mean_jq"],
        "units": f"{completed} tasks in the window, {fleet.next_task} submitted, "
        f"{requests} requests",
        "violations": violations,
        "setup_s": setup,
        "peak_rss_mb": served["peak_rss_mb"],
    }
    if traced:
        phase["layers"] = dict(served["layers"])
        phase["layers"].update(server_metrics(fleet, served, elapsed))
        phase["self_by_layer"] = served["self_by_layer"]
        phase["absent"] = served["absent"]
    return phase


def server_metrics(fleet, served, elapsed) -> dict:
    """Client-observed latencies matched against the server's handler
    time for the same request id: transport = client - handler."""
    handler = served["handler_ms"]

    def client_ms(kind):
        return [(rid, s * 1e3) for rid, s in fleet.latency.get(kind, [])]

    def pct(values, p):
        return stats.percentile(values, p) if values else 0.0

    votes, assigns = client_ms("vote"), client_ms("assign")
    vote_handler = [handler[rid] for rid, _ in votes if rid in handler]
    vote_transport = [ms - handler[rid] for rid, ms in votes if rid in handler]
    assign_transport = [ms - handler[rid] for rid, ms in assigns if rid in handler]
    requests = sum(len(v) for v in fleet.latency.values())
    return {
        "server.requests_per_s": requests / elapsed,
        "server.assign_p50_ms": pct([ms for _, ms in assigns], 50),
        "server.assign_p99_ms": pct([ms for _, ms in assigns], 99),
        "server.late_votes": float(fleet.late_votes),
        "server.vote_handler_p50_ms": pct(vote_handler, 50),
        "server.vote_handler_p99_ms": pct(vote_handler, 99),
        "server.mailbox_wait_p99_ms": pct(served["mailbox_wait_ms"], 99),
        "server.submit_handler_p50_ms": pct(served["server_ms"].get("server.submit", []), 50),
        "server.vote_transport_p50_ms": pct(vote_transport, 50),
        "server.vote_transport_p99_ms": pct(vote_transport, 99),
        "server.assign_transport_p50_ms": pct(assign_transport, 50),
    }


def run_workload(workload, seed, seconds, trace, env, outdir, deadline):
    """Returns (setup samples, phases, peak RSS of the program)."""
    setups = setup_probes(workload, seed, env, outdir, deadline)
    if workload == "http":
        if trace:
            phases = [
                run_http_phase(seed, seconds / 2, False, env, outdir, deadline),
                run_http_phase(seed, seconds / 2, True, env, outdir, deadline),
            ]
        else:
            phases = [run_http_phase(seed, seconds, False, env, outdir, deadline)]
        setups += [p["setup_s"] for p in phases]
        return setups, phases, phases[0]["peak_rss_mb"]
    result = run_program(workload, seed, seconds, trace, env, outdir, deadline)
    setups.append(result["setup_s"])
    return setups, result["phases"], result["peak_rss_mb"]


# ----------------------------------------------------------------------
def slowdown(phase) -> float:
    """How much slower than the reference speed the host ran during the
    phase (1.0 over HTTP: its times are set by the network stack's
    timers, and the server runs in threads the loop cannot follow)."""
    return hostspeed.slowdown(phase.get("reference_s", ()))


def rate(phase) -> float:
    """Work done per second over the phase's measured time, at the
    reference speed."""
    reps = phase["repetitions"]
    raw = sum(r["work"] for r in reps) / sum(r["seconds"] for r in reps)
    return raw * slowdown(phase)


def end_to_end(workload, setups, phase, rss) -> tuple[dict, dict]:
    """The end-to-end metrics of the untraced phase, and the sample
    count (and tail percentile) behind each.  Throughput and latency
    are at the reference speed; set-up time is as measured."""
    reps = phase["repetitions"]
    scale = 1e3 / slowdown(phase)
    latencies_ms = [s * scale for r in reps for s in r["latencies_s"]]
    label, tail = stats.tail(latencies_ms, TAIL[workload])
    values = {
        "throughput_per_s": rate(phase),
        "latency_mean_ms": sum(latencies_ms) / len(latencies_ms),
        "latency_tail_ms": tail,
        "accuracy": phase["accuracy"],
        "mean_jq": phase["mean_jq"],
        "setup_s": stats.median(setups),
        "peak_rss_mb": rss,
    }
    n = len(latencies_ms)
    samples = {
        "throughput_per_s": phase["units"],
        "latency_mean_ms": f"n={n}",
        "latency_tail_ms": f"{label}, n={n}, "
        f"{stats.beyond(n, float(label[1:])) if label != 'max' else 0} beyond",
        "setup_s": f"n={len(setups)}",
    }
    return values, samples


def per_layer(phases) -> dict:
    traced = phases[1]
    out = {name: 0.0 for name in registry.PER_LAYER}
    out.update(traced.get("layers", {}))
    out["trace.overhead_ratio"] = rate(phases[0]) / rate(traced)
    return out


def report(workload, seed, trace, setups, phases, rss, identity):
    untraced = phases[0]
    e2e, samples = end_to_end(workload, setups, untraced, rss)
    print(f"workload {workload}, seed {seed}: {untraced['units']} "
          f"in {untraced['seconds']:.3f} s measured; host at "
          f"{1 / slowdown(untraced):.3f} of the reference speed "
          f"({len(untraced.get('reference_s', ()))} timings of the reference loop)")
    if not trace:
        for name, value in e2e.items():
            unit = registry.END_TO_END[name][0]
            note = f"  ({samples[name]})" if name in samples else ""
            print(f"  {name:<18} {value:>14.6g} {unit}{note}")
        metrics = e2e
    else:
        traced = phases[1]
        metrics = per_layer(phases)
        print(f"traced: {traced['units']} in {traced['seconds']:.3f} s; "
              f"untraced wall {untraced['seconds']:.3f} s")
        layer_s = traced["self_by_layer"]
        print("  exclusive seconds per layer (traced run; idle = serving loop "
              "waiting for traffic):")
        for layer, secs in sorted(layer_s.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<12} {secs:>10.4f} s  {secs / sum(layer_s.values()):6.1%}")
        if traced.get("absent"):
            print("  absent entry points (their metrics read 0): "
                  + ", ".join(traced["absent"]))
        for name, value in metrics.items():
            unit = registry.PER_LAYER[name][0]
            print(f"  {name:<36} {value:>14.6g} {unit}")
    env_record = {
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        **identity,
        "workload": workload,
        "seed": seed,
        "samples": samples,
        "host_slowdown": [slowdown(p) for p in phases],
    }
    print("env " + json.dumps(env_record, sort_keys=True))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"no program source at {os.path.join(root, 'src', 'repro')}: "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = clock() + DEADLINE_S
    env = program_env(root)
    outdir = os.path.join(root, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    try:
        setups, phases, rss = run_workload(
            args.workload, args.seed, args.seconds, args.trace, env, outdir, deadline
        )
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    violations = [v for p in phases for v in p["violations"]]
    if violations:
        for violation in violations:
            print(f"correctness check failed: {violation}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    metrics = report(args.workload, args.seed, args.trace, setups, phases, rss,
                     source_identity(root))
    units = registry.PER_LAYER if args.trace else registry.END_TO_END
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name][0]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
