"""Fine-grained correction: relabel samples whose predictions are stable on
two axes over a trailing window, once per post-warm-up epoch (`correct_epoch`).

Axis 1: the predicted label is identical across the last t epochs.
Axis 2: mean predicted-label probability exceeds mean annotated-label
probability by strictly more than tau.

Accepted samples take the stable predicted label; their history is cleared
so at least t further epochs must pass before they can be corrected again.

`PredictionHistory` with `label_stable`, `score_gap` and
`correction_decision` state the rule for one sample; `apply_corrections`
applies it to every sample at once, from the (n, t) prediction windows of a
`CorrectionState`. `record_prediction` checks its arguments when called but
only buffers a copy of the probability row, n_classes entries long; before
`apply_corrections` reads the windows, the epoch's rows are stacked and
their argmax, p_pred and p_gt written as one column each. The flush reads
the two fields of the staged records with one list comprehension each:
`zip(*records)` would make one iterator per record, thousands an epoch,
enough to set off the cyclic collector dozens of times a run.

τ enters only through the decisions: each `apply_corrections` narrows
`CorrectionState.tau_range` to the [lo, hi) of τ′ that decide alike, `lo`
the largest gap of a stable but rejected sample and `hi` the smallest gap
of an accepted one; a NaN gap leaves no τ′.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .dataset import CorrectionEvent, Dataset
from .errors import ConfigurationError, LogicError, ValidationError
from .window import RingWindows

PROB_ROWS = {"weighted": "weighted_probs", "unweighted": "probs"}  # eval output by prob_source


@dataclass
class PredictionHistory:
    sample_id: int
    window: int
    entries: deque = field(default_factory=deque)  # (y_pred, p_pred, p_gt)
    epochs_recorded: int = 0

    def record(self, y_pred: int, p_pred: float, p_gt: float) -> None:
        self.entries.append((y_pred, p_pred, p_gt))
        if len(self.entries) > self.window:
            self.entries.popleft()
        self.epochs_recorded += 1

    def clear(self) -> None:
        self.entries.clear()
        self.epochs_recorded = 0


def label_stable(history: PredictionHistory) -> bool:
    """True iff a full window is present and every buffered prediction agrees."""
    if history.epochs_recorded < history.window:
        return False
    labels = {e[0] for e in history.entries}
    return len(labels) == 1


def score_gap(history: PredictionHistory) -> float:
    """mean(p_pred) - mean(p_gt) over the window."""
    if history.epochs_recorded < history.window:
        raise LogicError(
            f"sample {history.sample_id}: score_gap requires a full window"
        )
    mean_pred = sum(e[1] for e in history.entries) / len(history.entries)
    mean_gt = sum(e[2] for e in history.entries) / len(history.entries)
    return mean_pred - mean_gt


def correction_decision(history: PredictionHistory, tau: float) -> bool:
    """Accept iff the label is stable AND the score gap strictly exceeds tau."""
    if not label_stable(history):
        return False
    return score_gap(history) > tau


@dataclass
class CorrectionState:
    """Correction state of one stage over `n_classes` classes; `windows`
    holds each recorded sample's last t predicted labels, their probabilities
    and those of the annotated label (see `sciu.window`)."""

    tau: float
    window: int
    n_classes: int
    corrections: list[CorrectionEvent] = field(default_factory=list)
    tau_range: tuple[float, float] = (-np.inf, np.inf)  # the τ that decide alike
    windows: RingWindows = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise ConfigurationError("tau must be in (0, 1)")
        self.windows = RingWindows(
            self.window, _prediction_columns,
            preds=np.int64, p_pred=np.float64, p_gt=np.float64,
        )


def _prediction_columns(records: list) -> dict[str, np.ndarray]:
    """Window entries of buffered (probs bytes, annotated label) records."""
    rows = [row for row, _ in records]
    at = np.arange(len(rows))
    probs = np.frombuffer(b"".join(rows), np.float64).reshape(len(rows), -1)
    preds = probs.argmax(axis=1)
    labels = np.fromiter([label for _, label in records], np.int64, len(rows))
    return {"preds": preds, "p_pred": probs[at, preds], "p_gt": probs[at, labels]}


def record_prediction(
    state: CorrectionState,
    sample_id: int,
    probs: np.ndarray,
    gt_label: int,
    epoch: int,
) -> None:
    """Store a row of `state.n_classes` probabilities as its argmax label (ties ->
    lowest index), that label's probability and that of `gt_label`, an integer."""
    probs = np.asarray(probs, float)
    k = state.n_classes
    if probs.shape != (k,):
        raise ValidationError(f"sample {sample_id}: probs shape {probs.shape} != ({k},)")
    if not ((type(gt_label) is int or isinstance(gt_label, np.integer)) and 0 <= gt_label < k):
        raise ValidationError(f"sample {sample_id}: label {gt_label} not an integer in [0, {k})")
    # The row is kept as bytes, a copy that later edits of `probs` miss.
    state.windows.add(sample_id, (probs.tobytes(), gt_label))


def apply_corrections(
    state: CorrectionState, dataset: Dataset, epoch: int
) -> tuple[Dataset, list[CorrectionEvent]]:
    """Relabel every accepted sample with its stable prediction.

    Every sample with a full window is decided at once. Returns (D4 with
    the same sample ids, events for this call). Each corrected sample's
    history is cleared and `state.tau_range` narrowed.
    """
    w = state.windows
    pos, rows = w.full_rows(dataset.id_array)
    preds = w.buffers["preds"][rows]
    stable = (preds == preds[:, :1]).all(axis=1)  # label_stable
    gap = w.mean("p_pred", rows) - w.mean("p_gt", rows)  # score_gap
    accept = stable & (gap > state.tau)  # correction_decision
    lo, hi = state.tau_range  # once NaN, lo stays NaN
    state.tau_range = (float(gap[stable & ~accept].max(initial=lo)),
                       float(gap[accept].min(initial=hi)))
    at, new = pos[accept], preds[accept, 0]
    events = [CorrectionEvent(*event, epoch) for event in zip(
        dataset.id_array[at].tolist(), dataset.labels()[at].tolist(), new.tolist())]
    w.clear(rows[accept])
    state.corrections.extend(events)
    return (dataset.with_labels(at, new) if events else dataset), events


def correct_epoch(state: CorrectionState, active: Dataset, eval_out: dict, epoch: int, config):
    """Record the rows `config.prob_source` picks, correct: (active set, `eval_out["probs"]`)."""
    rows = eval_out[PROB_ROWS[config.prob_source]]
    for sid, row, label in zip(active.ids, rows, active.labels().tolist()):
        record_prediction(state, sid, row, label, epoch)
    active, _ = apply_corrections(state, active, epoch)
    return active, eval_out["probs"]
