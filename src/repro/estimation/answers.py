"""Answer matrices: the raw material of worker-quality estimation.

An :class:`AnswerMatrix` stores which worker answered which task with
which label, in a sparse (dict-of-dicts) layout: real crowdsourcing
campaigns are heavily incomplete (in the paper's AMT campaign, half the
workers answered a single 20-question HIT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core.exceptions import InvalidVoteError


@dataclass(frozen=True)
class Answer:
    """One worker's label for one task."""

    worker_id: str
    task_id: str
    label: int

    def __post_init__(self) -> None:
        if self.label < 0:
            raise InvalidVoteError(f"label {self.label} must be >= 0")


class AnswerMatrix:
    """A sparse worker x task answer store.

    Duplicate (worker, task) pairs are rejected: one vote per worker
    per task, as in the paper's model.

    There is one index, worker-major (``worker -> task -> label``, both
    levels in first-vote order), plus the arrival order of the votes as
    two flat lists of id references.  The task-major view
    (:meth:`by_task`) that EM and :meth:`vote_rows` iterate is rebuilt
    from that order when they ask for it, so a streamed campaign keeps
    a few dozen bytes per vote instead of a second dict per task.
    """

    def __init__(self, num_labels: int = 2, answers: Iterable[Answer] = ()) -> None:
        if num_labels < 2:
            raise ValueError("num_labels must be >= 2")
        self.num_labels = num_labels
        self._by_worker: dict[str, dict[str, int]] = {}
        # Vote i was cast on _vote_tasks[i] by _vote_workers[i].
        self._vote_tasks: list[str] = []
        self._vote_workers: list[str] = []
        for answer in answers:
            self.add(answer)

    def add(self, answer: Answer) -> None:
        if answer.label >= self.num_labels:
            raise InvalidVoteError(
                f"label {answer.label} outside 0..{self.num_labels - 1}"
            )
        worker_answers = self._by_worker.setdefault(answer.worker_id, {})
        if answer.task_id in worker_answers:
            raise ValueError(
                f"worker {answer.worker_id!r} already answered task "
                f"{answer.task_id!r}"
            )
        worker_answers[answer.task_id] = answer.label
        self._vote_tasks.append(answer.task_id)
        self._vote_workers.append(answer.worker_id)

    def record(self, worker_id: str, task_id: str, label: int) -> None:
        """Convenience wrapper around :meth:`add`."""
        self.add(Answer(worker_id, task_id, label))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def worker_ids(self) -> tuple[str, ...]:
        return tuple(self._by_worker)

    @property
    def num_answers(self) -> int:
        return len(self._vote_tasks)

    def label(self, worker_id: str, task_id: str) -> int:
        """The worker's label for the task (``KeyError`` if none)."""
        return self._by_worker[worker_id][task_id]

    def answers_by(self, worker_id: str) -> dict[str, int]:
        """task_id -> label for one worker (copy)."""
        return dict(self._by_worker.get(worker_id, {}))

    def by_task(self) -> dict[str, dict[str, int]]:
        """The task-major view, ``task_id -> {worker_id -> label}``:
        tasks in first-vote order, each task's voters in vote order.
        Built fresh on every call, in one pass over the votes."""
        view: dict[str, dict[str, int]] = {}
        by_worker = self._by_worker
        for task_id, worker_id in zip(self._vote_tasks, self._vote_workers):
            view.setdefault(task_id, {})[worker_id] = by_worker[worker_id][
                task_id
            ]
        return view

    def __iter__(self) -> Iterator[Answer]:
        for worker_id, tasks in self._by_worker.items():
            for task_id, label in tasks.items():
                yield Answer(worker_id, task_id, label)

    def __len__(self) -> int:
        return self.num_answers

    def participation_counts(self) -> dict[str, int]:
        """worker_id -> number of tasks answered."""
        return {w: len(tasks) for w, tasks in self._by_worker.items()}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def vote_rows(self) -> list[tuple[str, str, int, int, int]]:
        """Flatten to ``(worker_id, task_id, label, wpos, tpos)`` rows.

        ``wpos``/``tpos`` record each vote's position in the by-worker
        and by-task insertion orders.  Downstream estimators iterate
        both views, and float accumulation is order-sensitive at the
        last ulp — a checkpoint/restore round trip must preserve the
        exact iteration orders, not just the contents.
        """
        counter = 0
        tpos = {}
        for task_id, workers in self.by_task().items():
            for worker_id in workers:
                tpos[(worker_id, task_id)] = counter
                counter += 1
        rows = []
        wpos = 0
        for worker_id, tasks in self._by_worker.items():
            for task_id, label in tasks.items():
                rows.append(
                    (worker_id, task_id, label, wpos, tpos[(worker_id, task_id)])
                )
                wpos += 1
        return rows

    @classmethod
    def from_vote_rows(cls, rows, num_labels: int = 2) -> "AnswerMatrix":
        """Rebuild a matrix with both views in their original orders.
        The votes are re-logged in by-task order, which rebuilds the
        same task-major view; votes added later append to it as they
        would have."""
        matrix = cls(num_labels=num_labels)
        for worker_id, task_id, label, _wpos, _tpos in sorted(
            rows, key=lambda r: r[3]
        ):
            matrix._by_worker.setdefault(worker_id, {})[task_id] = int(label)
        for worker_id, task_id, _label, _wpos, _tpos in sorted(
            rows, key=lambda r: r[4]
        ):
            matrix._vote_tasks.append(task_id)
            matrix._vote_workers.append(worker_id)
        return matrix
