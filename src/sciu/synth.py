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
from .errors import ValidationError, check_field_types


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
        check_field_types(self, ValidationError)
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
    """The dataset of `config`. Pinned: the draws, in order: `means`, then per sample an
    intensity, a roll, a mislabel's neutral roll or class, and its noise row. A clean row
    is `means[c] * intensity + noise`, a low-quality one the noise itself."""
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5711]))
    lo, hi, k = config.intensity_low, config.intensity_high, config.n_classes
    n = k * config.per_class
    try:
        means = rng.standard_normal((k, config.dim))
        # Low-quality corruption replaces the structured signal with isotropic
        # noise at the signal's own amplitude: same energy, zero class signal.
        global_std = np.sqrt((lo**2 + lo * hi + hi**2) / 3.0 + config.cluster_spread**2)
        features = np.empty((n, config.dim))
        true_labels = np.repeat(np.arange(k, dtype=np.int64), config.per_class)
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        # Each sample's draws, in id order, go straight into their columns.
        intensities, lows, labels = np.empty(n), np.empty(n, dtype=bool), np.empty(n, np.int64)
        for i in range(n):
            c = i // config.per_class
            # random() takes uniform()'s draw, without its argument handling.
            intensity, roll, label = rng.uniform(lo, hi), rng.random(), c
            low = roll < config.low_quality_rate
            if not low and roll < config.low_quality_rate + config.mislabel_rate:
                if rng.random() < config.neutral_bias_fraction and c != 0:
                    intensity, label = lo, 0
                else:
                    label = int(rng.integers(k - 1))
                    label += label >= c  # any class but c
            features[i] = rng.normal(0.0, global_std if low else config.cluster_spread, config.dim)
            intensities[i], lows[i], labels[i] = intensity, low, label
        # The signal goes on the clean rows after the noise, one class's rows at a time:
        # IEEE addition commutes, and a low-quality row keeps its noise (and any -0.0).
        for rows, mean, scale, low in zip(features.reshape(k, -1, config.dim), means,
                                          intensities.reshape(k, -1), lows.reshape(k, -1)):
            np.add(rows, np.multiply.outer(scale, mean), out=rows, where=~low[:, None])
        quality = np.where(lows, QUALITY_CODES[QUALITY_LOW],
                           QUALITY_CODES[QUALITY_CLEAN]).astype(np.int8)
    except (MemoryError, OverflowError, ValueError) as e:  # sizes or intensities too big
        raise ValidationError(
            f"cannot generate {n} samples of dim {config.dim}, intensity_high "
            f"{hi} and cluster_spread {config.cluster_spread}: {e}") from e
    return Dataset(np.arange(n, dtype=np.int64), features, labels, true_labels, quality,
                   n_classes=k, dim=config.dim)
