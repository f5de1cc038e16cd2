"""One-coin EM: jointly estimate binary truths and scalar qualities.

When no gold questions exist, worker quality and task truth must be
estimated together.  The *one-coin* model (each worker is correct with
a single probability ``q_i`` regardless of the true label) admits the
classic EM scheme the paper cites for CDAS-style systems:

* E-step: posterior over each task's truth from current qualities
  (exactly the Bayesian-Voting posterior);
* M-step: each worker's quality becomes her expected fraction of
  agreements with the posterior truths.

Qualities are clamped away from {0, 1} to keep the E-step's
log-likelihoods finite and EM from locking in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import EstimationError
from .answers import AnswerMatrix

_CLAMP = 1e-6


@dataclass(frozen=True)
class OneCoinResult:
    """EM output: qualities, truth posteriors, and diagnostics."""

    qualities: dict[str, float]
    truth_posteriors: dict[str, float]  # task_id -> Pr(t = 1 | answers)
    iterations: int
    converged: bool

    def map_truths(self) -> dict[str, int]:
        """Maximum-a-posteriori truth per task (ties to 0)."""
        return {
            task: 1 if p > 0.5 else 0
            for task, p in self.truth_posteriors.items()
        }


def one_coin_em(
    answers: AnswerMatrix,
    prior_one: float = 0.5,
    initial_quality: float = 0.7,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
) -> OneCoinResult:
    """Run one-coin EM on a binary answer matrix.

    Parameters
    ----------
    answers:
        Binary campaign answers (``num_labels`` must be 2).
    prior_one:
        ``Pr(t = 1)`` prior shared by all tasks.
    initial_quality:
        Starting quality for every worker (0.7 mirrors the synthetic
        default; anything in (0.5, 1) breaks the label-switching
        symmetry toward "workers are mostly right").
    max_iterations / tolerance:
        Stop when the largest quality change falls below ``tolerance``
        or after ``max_iterations``.
    """
    if answers.num_labels != 2:
        raise EstimationError("one-coin EM handles binary answers only")
    if answers.num_answers == 0:
        raise EstimationError("empty answer matrix")
    if not 0.0 < prior_one < 1.0:
        raise ValueError("prior_one must lie strictly inside (0, 1)")

    workers = answers.worker_ids
    by_task = answers.by_task()
    quality = {w: float(initial_quality) for w in workers}
    posterior = {t: prior_one for t in by_task}

    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        # E-step: task posteriors under current qualities.
        for task, votes in by_task.items():
            log_one = np.log(prior_one)
            log_zero = np.log(1.0 - prior_one)
            for worker, label in votes.items():
                q = quality[worker]
                if label == 1:
                    log_one += np.log(q)
                    log_zero += np.log(1.0 - q)
                else:
                    log_one += np.log(1.0 - q)
                    log_zero += np.log(q)
            m = max(log_one, log_zero)
            p1 = np.exp(log_one - m)
            p0 = np.exp(log_zero - m)
            posterior[task] = float(p1 / (p0 + p1))

        # M-step: expected agreement per worker.
        max_change = 0.0
        for worker in workers:
            history = answers.answers_by(worker)
            agreement = 0.0
            for task, label in history.items():
                p1 = posterior[task]
                agreement += p1 if label == 1 else (1.0 - p1)
            new_q = float(np.clip(agreement / len(history), _CLAMP, 1 - _CLAMP))
            max_change = max(max_change, abs(new_q - quality[worker]))
            quality[worker] = new_q

        if max_change < tolerance:
            converged = True
            break

    return OneCoinResult(
        qualities=dict(quality),
        truth_posteriors=dict(posterior),
        iterations=iterations,
        converged=converged,
    )
