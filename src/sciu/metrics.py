"""Classification metrics (WAR/UAR, confusion matrix) and oracle-side
purification quality.

WAR is recall weighted by class support, i.e. overall accuracy. UAR is the
unweighted mean of per-class recalls; classes with no true samples are
left out rather than counted as zero. `war_uar` is the one path from rows
of class probabilities to both: every WAR/UAR of the trainer and the report.

`pruning_quality` and `correction_quality` read the dataset's oracle
columns, for evaluation only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .dataset import CorrectionEvent, Dataset, QUALITY_CODES, QUALITY_LOW
from .errors import EvaluationError


@dataclass
class ConfusionMatrix:
    n_classes: int
    counts: np.ndarray

    @classmethod
    def from_predictions(
        cls, true: Sequence[int], pred: Sequence[int], n_classes: int
    ) -> "ConfusionMatrix":
        true, pred = np.asarray(true), np.asarray(pred)
        if true.shape != pred.shape or true.ndim != 1:
            raise EvaluationError(
                f"{true.shape} true labels against {pred.shape} predictions"
            )
        for name, v in (("true", true), ("predicted", pred)):
            if v.size and (v.dtype.kind not in "iu" or v.min() < 0 or v.max() >= n_classes):
                raise EvaluationError(f"{name} classes are not integers in [0, {n_classes})")
        index = true.astype(np.int64) * n_classes + pred.astype(np.int64)
        counts = np.bincount(index, minlength=n_classes * n_classes)
        return cls(n_classes, counts.reshape(n_classes, n_classes))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def war(cm: ConfusionMatrix) -> float:
    """Support-weighted recall = trace / total = overall accuracy."""
    if cm.total == 0:
        raise EvaluationError("WAR undefined on an empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


def uar(cm: ConfusionMatrix) -> float:
    """Mean per-class recall over the classes that have true samples."""
    row_totals = cm.counts.sum(axis=1)
    present = row_totals > 0
    if not present.any():
        raise EvaluationError("UAR undefined: no class has any true sample")
    recalls = np.diag(cm.counts)[present] / row_totals[present]
    return float(recalls.mean())


def war_uar(true, probs: np.ndarray, n_classes: int) -> tuple[float, float, ConfusionMatrix]:
    """(WAR, UAR, confusion matrix) of the row argmax of `probs` against `true`."""
    cm = ConfusionMatrix.from_predictions(true, np.argmax(probs, axis=1), n_classes)
    return war(cm), uar(cm), cm


def pruning_quality(
    pruned_ids: Iterable[int], dataset: Dataset
) -> dict[str, Optional[float]]:
    """Precision/recall of the pruned set against the low-quality oracle flag.

    Precision is None when nothing was pruned.
    """
    _, quality = dataset.oracle_columns()
    if (quality < 0).any():
        raise EvaluationError("pruning_quality requires oracle quality flags")
    pruned = np.fromiter(set(pruned_ids), dtype=np.int64)
    low = dataset.id_array[quality == QUALITY_CODES[QUALITY_LOW]]
    hit = int(np.isin(low, pruned).sum())
    precision = hit / len(pruned) if len(pruned) else None
    recall = hit / len(low) if len(low) else None
    return {"precision": precision, "recall": recall}


def correction_quality(
    events: Sequence[CorrectionEvent], dataset: Dataset
) -> dict[str, Optional[float]]:
    """correction_accuracy = fraction of events landing on the true label;
    harmful_rate = fraction that broke an already-correct label.

    Both None when there are no events.
    """
    true_labels, _ = dataset.oracle_columns()
    if (true_labels < 0).any():
        raise EvaluationError("correction_quality requires oracle true labels")
    if not events:
        return {"correction_accuracy": None, "harmful_rate": None}
    truth = dict(zip(dataset.ids, true_labels.tolist()))
    good = sum(1 for e in events if e.new_label == truth[e.sample_id])
    harmful = sum(1 for e in events if e.old_label == truth[e.sample_id] != e.new_label)
    n = len(events)
    return {"correction_accuracy": good / n, "harmful_rate": harmful / n}
