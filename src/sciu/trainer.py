"""Epoch-driven training loop binding the model, the optimizer, and the
pruning/correction steps.

Per epoch: deterministic shuffle keyed by (seed, epoch), minibatch SGD with
momentum on the weighted cross-entropy loss, then one evaluation-mode
forward over all active samples. After warm-up, a decision stage hands that
forward's outputs to its step (`cgp.prune_epoch` or `fgc.correct_epoch`),
which decides every active sample by the same post-update parameters and
returns the active set left with its rows of the probs. The epoch's train
WAR/UAR are read from those rows, against the labels after correction. At a
stage's last epoch, `Dataset.check_finite`, the one owner of the finite check
(CGP's scores use it too), raises NumericError on non-finite probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cgp as cgp_mod
from . import fgc as fgc_mod
from .dataset import Dataset
from .errors import ConfigurationError, DegenerateRunError, NumericError, check_field_types
from .metrics import war_uar
from .model import SciuModel, backward_batch, forward_batch, init_model

SCORE_SOURCES = tuple(cgp_mod.SCORES)
PROB_SOURCES = tuple(fgc_mod.PROB_ROWS)

# The TrainConfig fields each stage does not read. A stage's result is a
# function of every other config field, its training input and the test split,
# and nothing else (so a sweep can share it between cells that agree on all
# three). FGC reads tau only through its decisions: its result holds for every
# tau in its `tau_range`.
STAGE_IGNORES = {
    "plain": ("warmup_epochs", "window_t", "lam", "tau", "score_source", "prob_source"),
    "cgp": ("tau", "prob_source"),
    "fgc": ("lam", "score_source"),
}
STAGES = tuple(STAGE_IGNORES)


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 60
    warmup_epochs: int = 15
    window_t: int = 3
    lam: float = 0.7
    tau: float = 0.2
    seed: int = 0
    score_source: str = "max_class"  # one of SCORE_SOURCES
    prob_source: str = "weighted"  # one of PROB_SOURCES
    embed_dim: int = 16
    hidden_dim: int = 4

    def validate(self) -> None:
        check_field_types(self, ConfigurationError)
        if self.window_t < 1:
            raise ConfigurationError("window_t must be >= 1")
        if self.epochs <= self.warmup_epochs + self.window_t:
            raise ConfigurationError(
                "epochs must exceed warmup_epochs + window_t"
            )
        if min(self.batch_size, self.embed_dim, self.hidden_dim) < 1:
            raise ConfigurationError("batch_size, embed_dim and hidden_dim must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.warmup_epochs < 0:
            raise ConfigurationError("warmup_epochs must be non-negative")
        if not (0.0 <= self.learning_rate < math.inf):
            raise ConfigurationError("learning_rate must be finite and non-negative")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigurationError("momentum must be in [0, 1)")
        if self.score_source not in SCORE_SOURCES:
            raise ConfigurationError(f"unknown score_source {self.score_source!r}")
        if self.prob_source not in PROB_SOURCES:
            raise ConfigurationError(f"unknown prob_source {self.prob_source!r}")
        if not (0.0 < self.lam < 1.0) or not (0.0 < self.tau < 1.0):
            raise ConfigurationError("lambda and tau must be in (0, 1)")


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    train_war: float
    train_uar: float
    test_war: Optional[float]
    test_uar: Optional[float]
    active_sample_count: int
    cumulative_pruned: int
    cumulative_corrected: int


@dataclass
class StageResult:
    stage: str
    model: SciuModel
    output_dataset: Optional[Dataset]
    epoch_records: list[EpochRecord]
    prune_log: list[dict] = field(default_factory=list)
    correction_events: list = field(default_factory=list)
    pruned_ids: set = field(default_factory=set)
    tau_range: tuple[float, float] = (-math.inf, math.inf)  # see fgc.CorrectionState


def run_epoch(
    model: SciuModel,
    dataset: Dataset,
    config: TrainConfig,
    velocity: np.ndarray,
    epoch: int,
    outputs: tuple[str, ...],
) -> tuple[float, dict[str, np.ndarray]]:
    """One pass of minibatch SGD, then an evaluation forward of `outputs`
    over the whole (active) dataset with the updated parameters.

    Each minibatch is a slice of the rows gathered once in shuffled order,
    freed before the evaluation; one momentum step on `model.flat` (with
    `velocity` of the same layout) updates every layer: the arithmetic of
    `nn_core.sgd_momentum_step`, less the checks `TrainConfig.validate` made,
    with `lr` and `momentum` held as 0-d float64 arrays (see `model`).

    Returns (mean batch loss, eval outputs aligned with dataset order).
    """
    if len(dataset) == 0:
        raise DegenerateRunError("cannot train on an empty dataset")
    feats = dataset.features_matrix()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, epoch, 0xE9]))
    order = rng.permutation(len(dataset))
    shuffled = feats[order]
    labels = dataset.labels()[order]

    lr, momentum = (np.array(v, dtype=np.float64) for v in (config.learning_rate, config.momentum))
    size = config.batch_size
    losses = []
    for start in range(0, len(order), size):
        stop = start + size
        _, loss = backward_batch(model, shuffled[start:stop], labels[start:stop])
        if not math.isfinite(loss):
            batch = order[start:stop]
            raise NumericError(
                f"non-finite loss at epoch {epoch}, batch of {len(batch)} samples starting "
                f"{start}, first sample ids {dataset.id_array[batch][:5].tolist()}"
            )
        velocity *= momentum
        velocity += model.grad
        model.flat -= lr * velocity
        losses.append(loss)

    del shuffled, labels  # not held through the evaluation forward
    return float(np.mean(losses)), forward_batch(model, feats, outputs)


def evaluate(model: SciuModel, dataset: Dataset):
    """(WAR, UAR, confusion matrix, probs) of the model's unweighted
    predictions against the dataset's labels: the per-epoch test metrics."""
    probs = forward_batch(model, dataset.features_matrix(), ("probs",))["probs"]
    return *war_uar(dataset.labels(), probs, dataset.n_classes), probs


def train_stage(
    dataset: Dataset,
    config: TrainConfig,
    stage: str,
    test_dataset: Optional[Dataset] = None,
) -> StageResult:
    """Run one full stage from a freshly initialized model.

    plain: supervised training only. cgp: additionally record weighted
    scores and prune after warm-up; output is D3. fgc: record predictions
    and correct labels after warm-up; output is D4 (same ids, new labels).
    """
    config.validate()
    if stage not in STAGES:
        raise ConfigurationError(f"unknown stage {stage!r}")
    if dataset.dim <= 0:
        raise ConfigurationError("dataset dim must be positive")

    model = init_model(
        dataset.dim, config.embed_dim, config.hidden_dim, dataset.n_classes, config.seed
    )
    velocity = np.zeros_like(model.flat)

    prune_state = cgp_mod.PruneState(config.lam, config.window_t)
    corr_state = fgc_mod.CorrectionState(config.tau, config.window_t, dataset.n_classes)
    # A decision stage's entry: the evaluation outputs its post-warm-up
    # epochs ask for besides the probs, its state and its step.
    asked, state, step = {
        "cgp": (("weight",), prune_state, cgp_mod.prune_epoch),
        "fgc": ((fgc_mod.PROB_ROWS[config.prob_source],), corr_state, fgc_mod.correct_epoch),
    }.get(stage, ((), None, None))
    active = dataset
    records: list[EpochRecord] = []

    for epoch in range(config.epochs):
        decides = step is not None and epoch >= config.warmup_epochs
        outputs = ("probs",) + (asked if decides else ())
        mean_loss, eval_out = run_epoch(model, active, config, velocity, epoch, outputs)
        probs = eval_out["probs"]
        if decides:
            active, probs = step(state, active, eval_out, epoch, config)

        # Per-epoch metrics on the current active set (post-decision labels).
        train_war, train_uar, _ = war_uar(active.labels(), probs, active.n_classes)
        if test_dataset is not None and len(test_dataset) > 0:
            tw, tu, _, test_probs = evaluate(model, test_dataset)
        else:
            tw = tu = test_probs = None
        # Every earlier epoch's parameters meet the next epoch's loss check.
        if epoch == config.epochs - 1:
            active.check_finite(probs, "training probabilities", epoch)
            if test_probs is not None:
                test_dataset.check_finite(test_probs, "test probabilities", epoch)
        del test_probs  # not held through the next epoch
        records.append(
            EpochRecord(
                epoch=epoch,
                mean_loss=mean_loss,
                train_war=train_war,
                train_uar=train_uar,
                test_war=tw,
                test_uar=tu,
                active_sample_count=len(active),
                cumulative_pruned=len(prune_state.pruned_ids),
                cumulative_corrected=len(corr_state.corrections),
            )
        )

    return StageResult(
        stage=stage,
        model=model,
        output_dataset=active if step is not None else None,
        epoch_records=records,
        prune_log=prune_state.prune_log,
        correction_events=corr_state.corrections,
        pruned_ids=prune_state.pruned_ids,
        tau_range=corr_state.tau_range,
    )
