"""Closed-loop HTTP client fleet for the ``http`` workload.

Two clients, each on its own keep-alive connection and thread, split
the worker ids between them.  Client 0 is also the requester: at the
start of each of its rounds it reads ``GET /status`` and tops up
``POST /tasks`` in chunks of 25 while fewer than ``MAX_IN_FLIGHT``
tasks are unfinished and the measuring time is not up.  In a round a
client walks its workers: ``GET /assignments?worker=`` and then one
``POST /votes`` per open offer, the vote drawn from the worker's true
quality by a (seed, task, worker) hash.  When the time is up the fleet
stops submitting, lets every submitted task finish, and closes the
campaign's intake.

Every request carries an ``X-Request-Id`` header so the traced server
can report its handler time for that request.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import inputs
from layers import REQUEST_ID_HEADER

CLIENTS = 2
CHUNK = 25
#: Unfinished tasks the requester keeps in flight.  Small enough that
#: the drain after the measuring time stays short at today's ~45 req/s.
MAX_IN_FLIGHT = 50
TIMEOUT_S = 30.0

clock = time.perf_counter


class Fleet:
    def __init__(self, port: int, seed: int, seconds: float, max_tasks: int,
                 workers: list[tuple[str, float, float]]) -> None:
        self.port = port
        self.seed = seed
        self.seconds = seconds
        self.truths = inputs.task_truths(seed, max_tasks)
        self.quality = {wid: q for wid, q, _ in workers}
        self.worker_ids = [wid for wid, _, _ in workers]
        self.next_task = 0
        self.lock = threading.Lock()
        self.ids = iter(range(1, 1 << 62))
        # kind -> list of (request id, seconds)
        self.latency: dict[str, list[tuple[str, float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.late_votes = 0
        self.done = threading.Event()
        self.start = 0.0
        self.deadline = 0.0
        self.final_status: dict = {}
        # (tasks completed, seconds) read from /status at the deadline
        self.window: tuple[int, float] | None = None

    # -- one request -----------------------------------------------------
    def request(self, conn, kind, method, path, body=None):
        """Send one request; returns (status, payload) or (None, None)
        on a connection error or timeout (counted as failed)."""
        with self.lock:
            rid = str(next(self.ids))
            self.attempted += 1
        headers = {REQUEST_ID_HEADER: rid}
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        start = clock()
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            with self.lock:
                self.failed += 1
                self.errors.append(f"{method} {path}: {exc!r}")
            return None, None
        elapsed = clock() - start
        with self.lock:
            self.latency.setdefault(kind, []).append((rid, elapsed))
            if response.status >= 500:
                self.failed += 1
                self.errors.append(f"{method} {path}: HTTP {response.status}")
        return response.status, json.loads(raw) if raw else None

    # -- the requester -----------------------------------------------------
    def top_up(self, conn) -> bool:
        """Read /status and submit tasks; True once everything submitted
        has completed after the measuring time."""
        status, payload = self.request(conn, "status", "GET", "/status")
        if status != 200:
            return False
        in_flight = self.next_task - payload["completed"]
        open_window = clock() < self.deadline
        while open_window and in_flight < MAX_IN_FLIGHT and self.next_task < len(self.truths):
            first = self.next_task
            last = min(first + CHUNK, len(self.truths))
            rows = [
                {"task_id": inputs.task_id(0, i), "ground_truth": self.truths[i]}
                for i in range(first, last)
            ]
            code, _ = self.request(conn, "tasks", "POST", "/tasks", {"tasks": rows})
            if code != 202:
                return False
            self.next_task = last
            in_flight += last - first
        if not open_window and payload["completed"] == self.next_task:
            self.final_status = payload
            return True
        return False

    # -- one client --------------------------------------------------------
    def client(self, index: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        mine = self.worker_ids[index::CLIENTS]
        try:
            k = 0
            while not self.done.is_set():
                if index == 0 and self.window is None and clock() >= self.deadline:
                    self.read_window(conn)
                # The requester looks at /status once a round, and once
                # the time is up every few workers, to see the drain end.
                if index == 0 and (
                    k % len(mine) == 0
                    or (k % 5 == 0 and clock() >= self.deadline)
                ):
                    if self.top_up(conn):
                        self.done.set()
                        break
                self.vote_for(conn, mine[k % len(mine)])
                k += 1
                if len(self.errors) > 20:
                    self.done.set()
        finally:
            conn.close()

    def read_window(self, conn) -> None:
        """Tasks completed within the measuring time, read as soon as
        it is up (the drain that follows is not part of the rate)."""
        status, payload = self.request(conn, "status", "GET", "/status")
        if status == 200:
            self.window = (payload["completed"], clock() - self.start)

    def vote_for(self, conn, worker: str) -> None:
        status, payload = self.request(
            conn, "assign", "GET", f"/assignments?worker={worker}"
        )
        if status != 200:
            return
        for offer in payload["assignments"]:
            task = offer["task_id"]
            truth = self.truths[int(task.rsplit("t", 1)[1])]
            vote = inputs.http_vote(self.seed, task, worker, truth, self.quality[worker])
            code, answer = self.request(
                conn, "vote", "POST", "/votes",
                {"task_id": task, "worker_id": worker, "vote": vote},
            )
            if code == 409 or (code == 200 and not answer["applied"]):
                with self.lock:
                    self.late_votes += 1

    def run(self) -> float:
        """Drive the campaign; returns the fleet's wall seconds."""
        self.start = start = clock()
        self.deadline = start + self.seconds
        threads = [
            threading.Thread(target=self.client, args=(i,), daemon=True)
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.seconds + 60)
        elapsed = clock() - start
        if any(t.is_alive() for t in threads):
            self.errors.append("client fleet did not finish")
            self.done.set()
        if self.window is None:
            self.errors.append("no /status read at the end of the measuring time")
        return elapsed

    def close_intake(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        try:
            code, _ = self.request(conn, "admin", "POST", "/admin/close", {"mode": "drain"})
            if code != 200:
                self.errors.append(f"POST /admin/close answered {code}")
        finally:
            conn.close()
