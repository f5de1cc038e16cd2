"""Dawid–Skene EM: confusion-matrix estimation (paper ref [1]).

The classic 1979 algorithm jointly estimates per-worker confusion
matrices and per-task label posteriors for multi-choice answers:

* E-step: ``Pr(t_task = j | answers)`` proportional to
  ``class_prior[j] * prod_workers C_w[j, label]``;
* M-step: ``C_w[j, k]`` becomes the posterior-weighted fraction of
  worker ``w``'s votes for ``k`` on tasks believed to be ``j``, and the
  class prior becomes the mean posterior.

Laplace smoothing keeps matrices strictly positive, which the bucketed
multiclass JQ estimator requires anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import EstimationError
from ..multiclass.confusion import ConfusionMatrix
from .answers import AnswerMatrix


@dataclass(frozen=True)
class DawidSkeneResult:
    """EM output: confusion matrices, class prior, task posteriors."""

    confusions: dict[str, ConfusionMatrix]
    class_prior: np.ndarray
    truth_posteriors: dict[str, np.ndarray]
    iterations: int
    converged: bool

    def map_truths(self) -> dict[str, int]:
        """MAP truth per task (ties to the smallest label)."""
        return {
            task: int(np.argmax(post))
            for task, post in self.truth_posteriors.items()
        }


def dawid_skene(
    answers: AnswerMatrix,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    smoothing: float = 0.01,
) -> DawidSkeneResult:
    """Run Dawid–Skene EM on a (possibly sparse) answer matrix.

    Initialization follows the original paper: task posteriors start at
    the per-task vote shares (a majority-vote soft labeling).
    """
    if answers.num_answers == 0:
        raise EstimationError("empty answer matrix")
    if smoothing <= 0.0:
        raise ValueError("smoothing must be positive (matrices must stay "
                         "strictly positive)")

    num_labels = answers.num_labels
    workers = answers.worker_ids
    by_task = answers.by_task()
    tasks = tuple(by_task)

    # Soft majority-vote initialization of the posteriors.
    posteriors: dict[str, np.ndarray] = {}
    for task, votes in by_task.items():
        counts = np.zeros(num_labels)
        for label in votes.values():
            counts[label] += 1.0
        posteriors[task] = counts / counts.sum()

    confusions: dict[str, np.ndarray] = {}
    class_prior = np.full(num_labels, 1.0 / num_labels)

    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        # M-step: confusion matrices and class prior from posteriors.
        for worker in workers:
            matrix = np.full((num_labels, num_labels), smoothing)
            for task, label in answers.answers_by(worker).items():
                matrix[:, label] += posteriors[task]
            confusions[worker] = matrix / matrix.sum(axis=1, keepdims=True)
        class_prior = np.mean([posteriors[t] for t in tasks], axis=0)
        class_prior = np.clip(class_prior, 1e-9, None)
        class_prior = class_prior / class_prior.sum()

        # E-step: refresh posteriors.
        max_change = 0.0
        for task, votes in by_task.items():
            log_post = np.log(class_prior)
            for worker, label in votes.items():
                log_post = log_post + np.log(confusions[worker][:, label])
            shifted = np.exp(log_post - log_post.max())
            new_post = shifted / shifted.sum()
            max_change = max(
                max_change, float(np.abs(new_post - posteriors[task]).max())
            )
            posteriors[task] = new_post

        if max_change < tolerance:
            converged = True
            break

    return DawidSkeneResult(
        confusions={
            worker: ConfusionMatrix(matrix)
            for worker, matrix in confusions.items()
        },
        class_prior=class_prior,
        truth_posteriors=dict(posteriors),
        iterations=iterations,
        converged=converged,
    )
