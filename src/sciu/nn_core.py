"""Minimal dense numerics: linear layers, the reference primitives the tests
check the model and trainer against (linear, activations, cross-entropy, SGD
with momentum), and a finite-difference gradient oracle.

Everything operates on float64 numpy arrays. Vectors are 1-D arrays,
matrices are 2-D arrays in row-major order. All functions are pure except
`sgd_momentum_step`, which updates its arguments in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError

EPS_LOG = 1e-12


@dataclass
class LinearLayer:
    """Dense layer y = W x + b with W of shape (out, in) and b of shape (out,)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ConfigurationError("weight must be 2-D and bias 1-D")
        if self.bias.shape[0] != self.weight.shape[0]:
            raise ConfigurationError(
                f"bias length {self.bias.shape[0]} != weight rows {self.weight.shape[0]}"
            )
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ConfigurationError("layer parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


def linear_forward(layer: LinearLayer, x: np.ndarray) -> np.ndarray:
    """W x + b for a single vector, or x W^T + b row-wise for a 2-D batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != layer.in_dim:
        raise ConfigurationError(
            f"input dim {x.shape[-1]} != layer input dim {layer.in_dim}"
        )
    return x @ layer.weight.T + layer.bias


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def sigmoid(x):
    """1 / (1 + e^-x), numerically stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction; 1-D input gives a 1-D distribution."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ConfigurationError("softmax of empty logits")
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, label: int) -> float:
    """-log p[label], clamping p[label] at 1e-12 before the log."""
    p = float(np.asarray(probs, dtype=np.float64)[label])
    return -np.log(max(p, EPS_LOG))


def sgd_momentum_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    velocity: Sequence[np.ndarray],
    lr: float,
    momentum: float,
) -> None:
    """Classic (Polyak) momentum: v <- momentum*v + g; p <- p - lr*v.

    Updates params and velocity in place.
    """
    if lr < 0:
        raise ConfigurationError("learning rate must be non-negative")
    if not (0.0 <= momentum < 1.0):
        raise ConfigurationError("momentum must be in [0, 1)")
    if not (len(params) == len(grads) == len(velocity)):
        raise ConfigurationError("params/grads/velocity length mismatch")
    for p, g, v in zip(params, grads, velocity):
        if p.shape != g.shape or p.shape != v.shape:
            raise ConfigurationError(
                f"shape mismatch: param {p.shape}, grad {g.shape}, velocity {v.shape}"
            )
        v *= momentum
        v += g
        p -= lr * v


def finite_difference_gradient(
    loss_fn: Callable[[], float],
    params: Sequence[np.ndarray],
    h: float = 1e-5,
) -> list[np.ndarray]:
    """Central-difference gradient of loss_fn w.r.t. every entry of params.

    loss_fn must read the live param arrays; entries are perturbed in place
    and restored.
    """
    if h <= 0:
        raise ConfigurationError("step size must be positive")
    grads = []
    for p in params:
        g = np.zeros_like(p)
        for i in np.ndindex(p.shape):  # p itself: reshape(-1) may copy a view
            orig = p[i]
            p[i] = orig + h
            lp = loss_fn()
            p[i] = orig - h
            lm = loss_fn()
            p[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return grads
