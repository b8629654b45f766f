import numpy as np
import pytest
from hypothesis import given, strategies as st

from sciu.dataset import QUALITY_CODES, CorrectionEvent, Dataset
from sciu.errors import EvaluationError
from sciu.metrics import (
    ConfusionMatrix,
    correction_quality,
    pruning_quality,
    uar,
    war,
)


def cm_from_counts(counts):
    counts = np.array(counts, dtype=np.int64)
    return ConfusionMatrix(counts.shape[0], counts)


class TestWar:
    def test_perfect(self):
        assert war(cm_from_counts([[5, 0], [0, 5]])) == 1.0

    def test_hand_counts(self):
        assert war(cm_from_counts([[8, 2], [4, 6]])) == pytest.approx(0.7)

    def test_all_wrong(self):
        assert war(cm_from_counts([[0, 3], [3, 0]])) == 0.0

    def test_empty_raises(self):
        with pytest.raises(EvaluationError):
            war(cm_from_counts([[0, 0], [0, 0]]))


class TestUar:
    def test_perfect(self):
        assert uar(cm_from_counts([[5, 0], [0, 5]])) == 1.0

    def test_hand_counts(self):
        assert uar(cm_from_counts([[8, 2], [4, 6]])) == pytest.approx(0.7)

    def test_imbalanced_war_differs_from_uar(self):
        cm = cm_from_counts([[90, 10], [5, 5]])
        assert war(cm) == pytest.approx(95 / 110)
        assert uar(cm) == pytest.approx(0.7)
        assert war(cm) != uar(cm)

    def test_empty_class_excluded(self):
        cm = cm_from_counts([[4, 0, 0], [0, 0, 0], [0, 0, 4]])
        assert uar(cm) == 1.0

    def test_all_classes_empty(self):
        with pytest.raises(EvaluationError):
            uar(cm_from_counts([[0, 0], [0, 0]]))


class TestFromPredictions:
    def test_counts(self):
        cm = ConfusionMatrix.from_predictions([0, 0, 1, 1], [0, 1, 1, 1], 2)
        np.testing.assert_array_equal(cm.counts, [[1, 1], [0, 2]])
        assert cm.total == 4

    @given(
        st.integers(1, 6).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                         max_size=60),
            )
        )
    )
    def test_matches_brute_force(self, case):
        k, pairs = case
        true = [t for t, _ in pairs]
        pred = [p for _, p in pairs]
        expect = [[0] * k for _ in range(k)]
        for t, p in pairs:
            expect[t][p] += 1
        cm = ConfusionMatrix.from_predictions(np.array(true, dtype=np.int64), pred, k)
        assert cm.counts.tolist() == expect

    @pytest.mark.parametrize(
        "true,pred",
        [([0, -1], [0, 0]), ([0, 1], [0, 2]), ([2], [0]), ([0, 0], [0]),
         ([0.6, 1], [0, 1]), ([0, 1], [0, 1.9]), ([True], [0])],
    )
    def test_bad_class_or_length_raises(self, true, pred):
        with pytest.raises(EvaluationError):
            ConfusionMatrix.from_predictions(true, pred, 2)


def oracle_dataset(flags_and_truth):
    """flags_and_truth: list of (quality_flag, true_label, label)."""
    flags, true_labels, labels = zip(*flags_and_truth)
    return Dataset(np.arange(len(labels), dtype=np.int64), np.zeros((len(labels), 1)),
                   np.array(labels, dtype=np.int64), np.array(true_labels, dtype=np.int64),
                   np.array([QUALITY_CODES[f] for f in flags], dtype=np.int8),
                   n_classes=3, dim=1)


def no_oracle_dataset(n_classes):
    """One sample without oracle values."""
    return Dataset(np.zeros(1, dtype=np.int64), np.zeros((1, 1)), np.zeros(1, dtype=np.int64),
                   np.full(1, -1, dtype=np.int64), np.full(1, -1, dtype=np.int8),
                   n_classes=n_classes, dim=1)


class TestPruningQuality:
    def test_exact_pruning(self):
        ds = oracle_dataset(
            [("low_quality", 0, 0), ("clean", 1, 1), ("low_quality", 2, 2)]
        )
        q = pruning_quality({0, 2}, ds)
        assert q == {"precision": 1.0, "recall": 1.0}

    def test_empty_pruned(self):
        ds = oracle_dataset([("low_quality", 0, 0), ("clean", 1, 1)])
        q = pruning_quality(set(), ds)
        assert q["precision"] is None and q["recall"] == 0.0

    def test_random_pruning_precision_near_base_rate(self):
        rng = np.random.default_rng(0)
        n, base = 5000, 0.2
        flags = [
            ("low_quality" if rng.uniform() < base else "clean", 0, 0)
            for _ in range(n)
        ]
        ds = oracle_dataset(flags)
        pruned = set(rng.choice(n, size=n // 2, replace=False).tolist())
        q = pruning_quality(pruned, ds)
        assert abs(q["precision"] - base) < 0.03

    def test_requires_oracle(self):
        ds = no_oracle_dataset(n_classes=2)
        with pytest.raises(EvaluationError):
            pruning_quality({0}, ds)


class TestCorrectionQuality:
    def test_all_fixed(self):
        ds = oracle_dataset([("clean", 2, 0), ("clean", 1, 0)])
        events = [CorrectionEvent(0, 0, 2, 5), CorrectionEvent(1, 0, 1, 5)]
        q = correction_quality(events, ds)
        assert q == {"correction_accuracy": 1.0, "harmful_rate": 0.0}

    def test_no_events(self):
        ds = oracle_dataset([("clean", 0, 0)])
        q = correction_quality([], ds)
        assert q == {"correction_accuracy": None, "harmful_rate": None}

    def test_harmful_counted(self):
        # Sample 0 was already correct; flipping it away is harmful.
        ds = oracle_dataset([("clean", 0, 0), ("clean", 2, 1)])
        events = [CorrectionEvent(0, 0, 1, 3), CorrectionEvent(1, 1, 2, 3)]
        q = correction_quality(events, ds)
        assert q["correction_accuracy"] == pytest.approx(0.5)
        assert q["harmful_rate"] == pytest.approx(0.5)

    def test_requires_oracle(self):
        ds = no_oracle_dataset(n_classes=3)
        with pytest.raises(EvaluationError):
            correction_quality([CorrectionEvent(0, 0, 1, 0)], ds)
