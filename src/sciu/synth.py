"""Synthetic classification datasets with two injected noise types.

Clean samples cluster around a random unit direction per class, scaled by a
per-sample intensity. Low-quality samples have their features replaced by
class-free Gaussian noise (the label is kept, so they are objectively
unusable yet still annotated). Mislabeled samples keep clean features but
carry a wrong label: either a low-intensity flip to class 0 (the "neutral"
analogue) or a uniformly random other class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, QUALITY_CLEAN, QUALITY_CODES, QUALITY_LOW
from .errors import ValidationError


@dataclass
class SynthConfig:
    n_classes: int = 7
    dim: int = 16
    per_class: int = 700
    low_quality_rate: float = 0.15
    mislabel_rate: float = 0.15
    neutral_bias_fraction: float = 0.5
    intensity_low: float = 2.0
    intensity_high: float = 3.0
    cluster_spread: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        if self.n_classes < 2:
            raise ValidationError("need at least 2 classes")
        if self.dim < 1 or self.per_class < 1:
            raise ValidationError("dim and per_class must be positive")
        for name in ("low_quality_rate", "mislabel_rate"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValidationError(f"{name} must be in [0, 1)")
        if self.low_quality_rate + self.mislabel_rate >= 1.0:
            raise ValidationError("low_quality_rate + mislabel_rate must be < 1")
        if not (0.0 <= self.neutral_bias_fraction <= 1.0):
            raise ValidationError("neutral_bias_fraction must be in [0, 1]")
        if not (0.0 < self.intensity_low <= self.intensity_high < math.inf):
            raise ValidationError("need 0 < intensity_low <= intensity_high < inf")
        if not (0.0 < self.cluster_spread < math.inf):
            raise ValidationError("cluster_spread must be finite and positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


def generate(config: SynthConfig) -> Dataset:
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5711]))

    n = config.n_classes * config.per_class
    try:
        means = rng.standard_normal((config.n_classes, config.dim))
        # Low-quality corruption replaces the structured signal with isotropic
        # noise at the signal's own amplitude: same energy, zero class signal.
        mean_intensity_sq = (config.intensity_low**2
                             + config.intensity_low * config.intensity_high
                             + config.intensity_high**2) / 3.0
        global_std = np.sqrt(mean_intensity_sq + config.cluster_spread**2)
        features = np.empty((n, config.dim))
        labels = np.empty(n, dtype=np.int64)
        true_labels = np.repeat(np.arange(config.n_classes, dtype=np.int64), config.per_class)
        quality = np.full(n, QUALITY_CODES[QUALITY_CLEAN], dtype=np.int8)
    except (MemoryError, OverflowError, ValueError) as e:  # sizes or intensities too big
        raise ValidationError(
            f"cannot generate {n} samples of dim {config.dim}, intensity_high "
            f"{config.intensity_high} and cluster_spread {config.cluster_spread}: {e}") from e
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    for i, c in enumerate(true_labels.tolist()):
        intensity = rng.uniform(config.intensity_low, config.intensity_high)
        roll = rng.uniform()
        label = c
        if roll < config.low_quality_rate:
            features[i] = rng.normal(0.0, global_std, config.dim)
            quality[i] = QUALITY_CODES[QUALITY_LOW]
        else:
            if roll < config.low_quality_rate + config.mislabel_rate:
                neutral = rng.uniform() < config.neutral_bias_fraction and c != 0
                if neutral:
                    intensity = config.intensity_low
                    label = 0
                else:
                    label = int(rng.integers(config.n_classes - 1))
                    if label >= c:
                        label += 1
            features[i] = means[c] * intensity + rng.normal(
                0.0, config.cluster_spread, config.dim
            )
        labels[i] = label
    return Dataset.from_columns(
        np.arange(n, dtype=np.int64), features, labels, true_labels, quality,
        n_classes=config.n_classes, dim=config.dim,
    )
