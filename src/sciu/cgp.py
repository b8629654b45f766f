"""Coarse-grained pruning: per-sample trailing windows of weighted scores
and a strict-threshold keep/prune decision.

Each active sample records s = weight * p once per post-warm-up epoch
(`prune_epoch`), p read from its probs as `SCORES` says. Once a sample has a
full window of t scores, its trailing mean S_T is compared against lambda:
keep iff S_T > lambda. Pruning is permanent for the remainder of the stage.

`ScoreHistory`, `trailing_mean` and `prune_decision` state the rule for one
sample; `apply_pruning` applies it to every active sample at once, from the
(n, t) score windows of a `PruneState`. `record_score` checks its arguments
when called but only buffers the score; the epoch's scores reach the
windows as one column write before `apply_pruning` reads them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import ConfigurationError, DegenerateRunError, LogicError, ValidationError
from .model import row_max
from .window import RingWindows


@dataclass
class ScoreHistory:
    sample_id: int
    window: int
    scores: deque = field(default_factory=deque)
    epochs_recorded: int = 0

    def record(self, score: float) -> None:
        if not (0.0 <= score <= 1.0):
            raise ValidationError(
                f"sample {self.sample_id}: score {score} outside [0, 1]"
            )
        self.scores.append(score)
        if len(self.scores) > self.window:
            self.scores.popleft()
        self.epochs_recorded += 1


def trailing_mean(history: ScoreHistory) -> float | None:
    """Mean of the buffered scores, or None before a full window."""
    if history.epochs_recorded < history.window:
        return None
    return sum(history.scores) / len(history.scores)


def prune_decision(s_t: float, lam: float) -> bool:
    """True = keep. Keep iff S_T > lambda (strict); equality prunes."""
    return s_t > lam


@dataclass
class PruneState:
    """Pruning state of one stage; `windows` holds each scored sample's
    last t scores (see `sciu.window`)."""

    lam: float
    window: int
    pruned_ids: set[int] = field(default_factory=set)
    prune_log: list[dict] = field(default_factory=list)
    windows: RingWindows = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise ConfigurationError("lambda must be in (0, 1)")
        self.windows = RingWindows(
            self.window, lambda s: {"scores": np.fromiter(s, np.float64, len(s))}, scores=float)


def record_score(
    state: PruneState, sample_id: int, weight: float, prob_of_label: float, epoch: int
) -> None:
    if sample_id in state.pruned_ids:
        raise LogicError(f"sample {sample_id} is pruned, cannot record a score")
    if not (0.0 <= weight <= 1.0):
        raise ValidationError(f"weight {weight} outside [0, 1]")
    if not (0.0 <= prob_of_label <= 1.0):
        raise ValidationError(f"prob {prob_of_label} outside [0, 1]")
    state.windows.add(sample_id, weight * prob_of_label)


def apply_pruning(
    state: PruneState, dataset: Dataset, epoch: int
) -> tuple[Dataset, set[int]]:
    """Evaluate ready trailing means; move failing samples to pruned_ids.

    Every sample with a full window and not yet pruned is decided at once;
    ids pruned before are dropped undecided. Returns (D3 = active remainder,
    ids newly pruned this call). `prune_epoch` calls it after warm-up only.
    """
    ids, done = dataset.id_array, state.pruned_ids
    pruned = np.isin(ids, np.fromiter(done, np.int64, len(done)))
    pos, rows = state.windows.full_rows(ids)
    pos, rows = pos[~pruned[pos]], rows[~pruned[pos]]
    s_t = state.windows.mean("scores", rows)
    drop = ~(s_t > state.lam)  # prune_decision, for every ready sample
    newly = ids[pos[drop]].tolist()
    state.prune_log += [{"epoch": epoch, "sample_id": sid, "S_T": mean, "lambda": state.lam}
                        for sid, mean in zip(newly, s_t[drop].tolist())]
    state.pruned_ids.update(newly)
    pruned[pos[drop]] = True
    return dataset._take(np.flatnonzero(~pruned)), set(newly)


SCORES = {"annotated_class": lambda probs, ds: probs[np.arange(len(ds)), ds.labels()],
          "max_class": lambda probs, ds: row_max(probs)}


def prune_epoch(state: PruneState, active: Dataset, eval_out: dict, epoch: int, config):
    """Score by `config.score_source`, prune: (active set left, its `eval_out["probs"]` rows)."""
    weights, probs = eval_out["weight"], eval_out["probs"]
    p = SCORES[config.score_source](probs, active)
    active.check_finite(weights * p, "score", epoch)
    for sid, w, pl in zip(active.ids, weights.tolist(), p.tolist()):
        record_score(state, sid, w, pl, epoch)
    kept, newly = apply_pruning(state, active, epoch)
    if len(kept) == 0:
        raise DegenerateRunError("all samples pruned: lower lambda or extend warm-up")
    if newly:
        probs = probs[np.isin(active.id_array, kept.id_array)]
    return kept, probs
