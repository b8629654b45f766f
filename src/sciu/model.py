"""Dual-branch model: shared encoder, classification head, and a learned
per-sample weight branch.

For input features v the model computes

    x  = ReLU(W_e v + b_e)                    embedding
    z  = W_c x + b_c                          logits
    w  = sigmoid(w2 . ReLU(W1 x + b1) + b2)   sample weight in [0, 1]

The training loss is cross-entropy on softmax(w * z); the weight branch is
trained end-to-end through that scaling. `backward_batch` is the
hand-derived analytic gradient of this loss, checked against finite
differences in the test suite. It and `forward_batch` run the same layer
functions (`_encode`, `_weigh`, `_softmax_rows`), so training and inference
compute every layer with the same float operations; `forward_batch` skips
those its caller does not ask for. A minibatch is ~60 numpy calls, more
dispatch than flops, so the layers call ufuncs and write in place, bit for bit:
a ReLU on its layer's output, the backward's masks on max(y, 0) > 0 (iff y > 0).
For the same reason the step passes numpy 0-d float64 arrays (`_ZERO`, `_ONE`,
`_EPS`), not Python scalars, which numpy converts on every call; under NEP 50
both promote alike. The backward's six products call `np.dot`, which makes the
same BLAS calls as `@` at less dispatch. `_linear` keeps `@`: on the
evaluation forward's thousands of rows `np.dot` is slower.

Parameters live in one contiguous float64 vector, `model.flat`: the eight
arrays of `parameters()` one after another, in that order, each row-major.
Every layer's `weight` and `bias` is a view of it, so an in-place edit
through a layer shows in `flat` and one SGD update on `flat` moves every
layer. `model.grad` has the same layout; `backward_batch` writes into it,
and the gradients it returns are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .nn_core import EPS_LOG, LinearLayer

_ZERO, _ONE, _EPS = np.array(0.0), np.array(1.0), np.array(EPS_LOG)


@dataclass
class SciuModel:
    encoder: LinearLayer
    classifier: LinearLayer
    wb_hidden: LinearLayer
    wb_out: LinearLayer
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    grad: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.classifier.in_dim != self.encoder.out_dim:
            raise ConfigurationError("classifier input dim != encoder output dim")
        if self.wb_hidden.in_dim != self.encoder.out_dim:
            raise ConfigurationError("weight branch input dim != encoder output dim")
        if self.wb_out.in_dim != self.wb_hidden.out_dim or self.wb_out.out_dim != 1:
            raise ConfigurationError("weight branch output layer must map hidden -> 1")
        self.flat = np.concatenate([p.ravel() for p in self.parameters()])
        self.grad = np.zeros_like(self.flat)
        views = self._views(self.flat)
        for i, layer in enumerate(self._layers()):
            layer.weight, layer.bias = views[2 * i], views[2 * i + 1]
        self._grads = self._views(self.grad)

    def _layers(self) -> tuple[LinearLayer, ...]:
        return (self.encoder, self.classifier, self.wb_hidden, self.wb_out)

    def _views(self, buf: np.ndarray) -> list[np.ndarray]:
        """Views of a flat buffer shaped like parameters(), in that order."""
        views, start = [], 0
        for p in self.parameters():
            views.append(buf[start : start + p.size].reshape(p.shape))
            start += p.size
        return views

    @property
    def n_classes(self) -> int:
        return self.classifier.out_dim

    @property
    def input_dim(self) -> int:
        return self.encoder.in_dim

    def parameters(self) -> list[np.ndarray]:
        """Live parameter arrays in a fixed order; views of `flat`."""
        return [a for layer in self._layers() for a in (layer.weight, layer.bias)]


def init_model(
    input_dim: int,
    embed_dim: int,
    hidden_dim: int,
    n_classes: int,
    seed: int,
) -> SciuModel:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) init; weight-branch output
    bias zeroed so the initial sample weight sits near 0.5."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x30DE1]))

    def layer(out_dim, in_dim, zero_bias=False):
        bound = 1.0 / np.sqrt(in_dim)
        w = rng.uniform(-bound, bound, (out_dim, in_dim))
        b = np.zeros(out_dim) if zero_bias else rng.uniform(-bound, bound, out_dim)
        return LinearLayer(w, b)

    try:
        return SciuModel(
            encoder=layer(embed_dim, input_dim),
            classifier=layer(n_classes, embed_dim),
            wb_hidden=layer(hidden_dim, embed_dim),
            wb_out=layer(1, hidden_dim, zero_bias=True),
        )
    except (ValueError, MemoryError) as e:  # a layer numpy cannot allocate
        dims = f"{input_dim!r:.80}, {embed_dim!r:.80}, {hidden_dim!r:.80}"
        raise ConfigurationError(f"cannot build a model with input, embed and hidden dims {dims} "
                                 f"and {n_classes!r:.80} classes: {e}") from e


def _linear(x: np.ndarray, layer: LinearLayer) -> np.ndarray:
    """x W^T + b over a batch, the bias added in place on the fresh product."""
    y = x @ layer.weight.T
    y += layer.bias
    return y


def _encode(model: SciuModel, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Encoder and classifier over a float64 batch: (emb, logits)."""
    emb = _linear(x, model.encoder)
    np.maximum(emb, _ZERO, out=emb)
    return emb, _linear(emb, model.classifier)


def _weigh(model: SciuModel, emb: np.ndarray) -> tuple[np.ndarray, ...]:
    """Weight branch over the embeddings: (hidden, (n,) weights w)."""
    hidden = _linear(emb, model.wb_hidden)
    np.maximum(hidden, _ZERO, out=hidden)
    pre_sig = _linear(hidden, model.wb_out)[:, 0]
    # Stable sigmoid: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below; with e in
    # [0, 1], the numerator max(e, x >= 0) is 1 or e.
    e = np.exp(-np.abs(pre_sig))
    return hidden, np.maximum(e, pre_sig >= _ZERO) / (_ONE + e)


def _forward(model: SciuModel, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every layer over a batch: (emb, logits, hidden, w, wp), with
    wp = softmax(w * logits). `backward_batch` reads all of them."""
    emb, logits = _encode(model, x)
    hidden, w = _weigh(model, emb)
    return emb, logits, hidden, w, _softmax_rows(w[:, None] * logits)


def row_max(z: np.ndarray) -> np.ndarray:
    """`z.max(axis=1)`, folded row by row over the transpose: numpy reduces
    short rows one by one, ~10x slower, and a max is exact in any order."""
    return np.maximum.reduce(np.ascontiguousarray(z.T))


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a fresh array, in place: subtract the row max,
    exponentiate, normalize."""
    z -= row_max(z)[:, None]
    np.exp(z, out=z)
    z /= np.add.reduce(z, 1, keepdims=True)
    return z


OUTPUTS = ("logits", "probs", "weight", "weighted_probs")


def forward_batch(
    model: SciuModel, features: np.ndarray, outputs: tuple[str, ...] = OUTPUTS
) -> dict[str, np.ndarray]:
    """Vectorized forward over a (n, input_dim) batch: the `outputs` asked for,
    of `OUTPUTS`, by the layers `backward_batch` differentiates. The weight
    branch and each softmax run only for an output that needs them."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.input_dim:
        raise ConfigurationError(
            f"batch shape {features.shape} incompatible with input dim {model.input_dim}"
        )
    emb, logits = _encode(model, features)
    out = {"logits": logits}
    if "weight" in outputs or "weighted_probs" in outputs:
        w = out["weight"] = _weigh(model, emb)[1]
        if "weighted_probs" in outputs:
            out["weighted_probs"] = _softmax_rows(w[:, None] * logits)
    if "probs" in outputs:
        # In place on the logits when the caller does not read them.
        out["probs"] = _softmax_rows(logits.copy() if "logits" in outputs else logits)
    return {key: out[key] for key in outputs}


def batch_loss(model: SciuModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean weighted cross-entropy over a batch."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and not (0 <= labels.min() and labels.max() < model.n_classes):
        raise ConfigurationError(
            f"labels span [{labels.min()}, {labels.max()}], outside [0, {model.n_classes})"
        )
    out = forward_batch(model, features, ("weighted_probs",))
    wp = out["weighted_probs"][np.arange(len(labels)), labels]
    return float(np.mean(-np.log(np.maximum(wp, EPS_LOG))))


def backward_batch(
    model: SciuModel, features: np.ndarray, labels: np.ndarray
) -> tuple[list[np.ndarray], float]:
    """Mean-loss gradients for every parameter, order matching parameters().

    Returns (grads, mean loss). The grads are views of `model.grad`, which
    the next call overwrites. The forward half is `_forward`, the layers
    `forward_batch` runs, and the gradient overwrites its arrays in place.
    This is the training hot path: it leaves checking shapes and labels to
    `forward_batch`, `batch_loss` and the dataset.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    cls, hid, out = model.classifier, model.wb_hidden, model.wb_out
    g_enc_w, g_enc_b, g_cls_w, g_cls_b, g_hid_w, g_hid_b, g_out_w, g_out_b = model._grads
    emb, logits, hidden, w, wp = _forward(model, features)

    # Each row's label prob, by its position in the flattened softmax; the
    # loss is the mean of -log p, and `0.0 -` keeps an all-zero sum +0.0.
    at_label = np.arange(0, wp.size, wp.shape[1]) + labels
    p_label = wp.reshape(-1)[at_label]
    loss = 0.0 - float(np.add.reduce(np.log(np.maximum(p_label, _EPS)))) / n

    # d(mean loss)/d(weighted logits) = (softmax - onehot)/n, in place on wp
    d_m = wp
    d_m.reshape(-1)[at_label] = p_label - _ONE
    d_m /= np.array(n, dtype=np.float64)

    d_logits = w[:, None] * d_m
    logits *= d_m
    d_w = np.add.reduce(logits, 1)

    np.dot(d_logits.T, emb, out=g_cls_w)
    np.add.reduce(d_logits, 0, out=g_cls_b)
    d_emb = np.dot(d_logits, cls.weight)

    d_pre_sig = d_w * w
    d_pre_sig *= _ONE - w
    np.dot(d_pre_sig, hidden, out=g_out_w[0])
    np.add.reduce(d_pre_sig, 0, out=g_out_b, keepdims=True)
    d_pre_hid = np.multiply.outer(d_pre_sig, out.weight[0])
    d_pre_hid *= hidden > _ZERO
    np.dot(d_pre_hid.T, emb, out=g_hid_w)
    np.add.reduce(d_pre_hid, 0, out=g_hid_b)
    d_emb += np.dot(d_pre_hid, hid.weight)

    d_pre_emb = np.multiply(d_emb, emb > _ZERO, out=d_emb)
    np.dot(d_pre_emb.T, features, out=g_enc_w)
    np.add.reduce(d_pre_emb, 0, out=g_enc_b)

    return list(model._grads), loss
