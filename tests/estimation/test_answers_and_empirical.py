"""Tests for repro.estimation.answers and .empirical."""

import pytest

from repro.core import EstimationError, InvalidVoteError
from repro.estimation import (
    Answer,
    AnswerMatrix,
    empirical_qualities,
    empirical_quality,
)


class TestAnswerMatrix:
    def test_record_and_lookup(self):
        m = AnswerMatrix()
        m.record("w1", "t1", 1)
        m.record("w1", "t2", 0)
        m.record("w2", "t1", 0)
        assert m.num_answers == 3
        assert len(m) == 3
        assert m.answers_by("w1") == {"t1": 1, "t2": 0}
        assert m.by_task() == {"t1": {"w1": 1, "w2": 0}, "t2": {"w1": 0}}

    def test_duplicate_answer_rejected(self):
        m = AnswerMatrix()
        m.record("w1", "t1", 1)
        with pytest.raises(ValueError, match="already answered"):
            m.record("w1", "t1", 0)

    def test_label_domain(self):
        m = AnswerMatrix(num_labels=3)
        m.record("w", "t", 2)
        with pytest.raises(InvalidVoteError):
            m.record("w", "t2", 3)
        with pytest.raises(InvalidVoteError):
            Answer("w", "t", -1)

    def test_num_labels_validation(self):
        with pytest.raises(ValueError):
            AnswerMatrix(num_labels=1)

    def test_iteration(self):
        m = AnswerMatrix(answers=[Answer("w", "t", 1)])
        answers = list(m)
        assert answers == [Answer("w", "t", 1)]

    def test_views_are_copies(self):
        m = AnswerMatrix()
        m.record("w", "t", 1)
        view = m.answers_by("w")
        view["t"] = 0
        assert m.answers_by("w") == {"t": 1}

    def test_participation_counts(self):
        m = AnswerMatrix()
        m.record("w1", "t1", 1)
        m.record("w1", "t2", 1)
        m.record("w2", "t1", 0)
        assert m.participation_counts() == {"w1": 2, "w2": 1}

    def test_missing_worker_and_task(self):
        m = AnswerMatrix()
        assert m.answers_by("nope") == {}
        assert "nope" not in m.by_task()


class TestEmpiricalQuality:
    def make_matrix(self):
        m = AnswerMatrix()
        truth = {"t1": 1, "t2": 0, "t3": 1, "t4": 0}
        # w1: 3 of 4 correct; w2: 1 of 2 correct; w3: only ungraded work.
        m.record("w1", "t1", 1)
        m.record("w1", "t2", 0)
        m.record("w1", "t3", 0)
        m.record("w1", "t4", 0)
        m.record("w2", "t1", 1)
        m.record("w2", "t2", 1)
        m.record("w3", "t9", 1)
        return m, truth

    def test_accuracy_against_gold(self):
        m, truth = self.make_matrix()
        assert empirical_quality(m, truth, "w1") == pytest.approx(0.75)
        assert empirical_quality(m, truth, "w2") == pytest.approx(0.5)

    def test_no_gradable_history(self):
        m, truth = self.make_matrix()
        with pytest.raises(EstimationError):
            empirical_quality(m, truth, "w3")

    def test_smoothing_pulls_to_half(self):
        m, truth = self.make_matrix()
        raw = empirical_quality(m, truth, "w1")
        smoothed = empirical_quality(m, truth, "w1", smoothing=2.0)
        assert 0.5 < smoothed < raw

    def test_bulk_estimation_skips_ungradable(self):
        m, truth = self.make_matrix()
        qualities = empirical_qualities(m, truth)
        assert set(qualities) == {"w1", "w2"}
        assert qualities["w1"] == pytest.approx(0.75)
