import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from sciu.errors import ConfigurationError
from sciu.model import (
    OUTPUTS,
    SciuModel,
    _softmax_rows,
    backward_batch,
    batch_loss,
    forward_batch,
    init_model,
    row_max,
)
from sciu.nn_core import (
    LinearLayer,
    cross_entropy,
    finite_difference_gradient,
    linear_forward,
    relu,
    sgd_momentum_step,
    sigmoid,
    softmax,
)


def zero_model(input_dim=3, embed=4, hidden=2, n_classes=3):
    return SciuModel(
        encoder=LinearLayer(np.zeros((embed, input_dim)), np.zeros(embed)),
        classifier=LinearLayer(np.zeros((n_classes, embed)), np.zeros(n_classes)),
        wb_hidden=LinearLayer(np.zeros((hidden, embed)), np.zeros(hidden)),
        wb_out=LinearLayer(np.zeros((1, hidden)), np.zeros(1)),
    )


def saturated_weight_model(bias, seed=0):
    """Random model whose weight-branch output is pinned at sigmoid(bias)."""
    m = init_model(3, 4, 2, 3, seed=seed)
    m.wb_out.weight[:] = 0.0
    m.wb_out.bias[:] = bias
    return m


def forward_one(model, x):
    """Forward outputs of a single feature vector, as a one-row batch."""
    out = forward_batch(model, np.asarray(x, dtype=np.float64)[None, :])
    return {k: v[0] for k, v in out.items()}


def split_like(buf, params):
    """A flat buffer cut into arrays shaped like `params`, in order."""
    cuts = np.cumsum([p.size for p in params])[:-1]
    return [part.reshape(p.shape) for part, p in zip(np.split(buf, cuts), params)]


def reference_forward(model, features):
    """`forward_batch` written layer by layer through the `nn_core`
    primitives."""
    emb = relu(linear_forward(model.encoder, features))
    logits = linear_forward(model.classifier, emb)
    hidden = relu(linear_forward(model.wb_hidden, emb))
    w = sigmoid(linear_forward(model.wb_out, hidden)[:, 0])
    return {"logits": logits, "probs": softmax(logits), "weight": w,
            "weighted_probs": softmax(w[:, None] * logits)}


def reference_backward(model, features, labels):
    """The gradient written layer by layer through the `nn_core` primitives,
    one new array per step: what `backward_batch` computes in place."""
    pre_emb = linear_forward(model.encoder, features)
    emb = relu(pre_emb)
    logits = linear_forward(model.classifier, emb)
    pre_hid = linear_forward(model.wb_hidden, emb)
    hidden = relu(pre_hid)
    w = sigmoid(linear_forward(model.wb_out, hidden)[:, 0])
    wp = softmax(w[:, None] * logits)
    idx = np.arange(len(labels))
    loss = float(np.mean(-np.log(np.maximum(wp[idx, labels], 1e-12))))
    d_m = wp.copy()
    d_m[idx, labels] -= 1.0
    d_m /= len(labels)
    d_logits = w[:, None] * d_m
    d_w = np.sum(d_m * logits, axis=1)
    d_emb = d_logits @ model.classifier.weight
    d_pre_sig = d_w * w * (1.0 - w)
    d_pre_hid = (d_pre_sig[:, None] * model.wb_out.weight[0][None, :]) * (pre_hid > 0)
    d_emb += d_pre_hid @ model.wb_hidden.weight
    d_pre_emb = d_emb * (pre_emb > 0)
    grads = [
        d_pre_emb.T @ features, d_pre_emb.sum(axis=0),
        d_logits.T @ emb, d_logits.sum(axis=0),
        d_pre_hid.T @ emb, d_pre_hid.sum(axis=0),
        (d_pre_sig @ hidden)[None, :], np.array([d_pre_sig.sum()]),
    ]
    return grads, loss


def _row_max_cases():
    rng = np.random.default_rng(0)
    ties = rng.integers(-2, 3, (40, 7)).astype(np.float64)
    zeros = np.where(rng.uniform(size=(50, 7)) < 0.5, 0.0, -0.0)
    zeros[::3, 4] = -1.0
    nan = rng.normal(size=(6, 7))
    nan[0, 3] = nan[2, 0] = nan[2, 6] = np.nan
    inf = rng.normal(size=(6, 7))
    inf[0, 1], inf[1, 2], inf[2] = np.inf, -np.inf, -np.inf
    inf[3, :2] = [np.inf, -np.inf]
    return {
        "ties": ties, "signed-zeros": zeros, "nan": nan, "inf": inf,
        "no-rows": np.zeros((0, 7)), "one-column": np.array([[-0.0], [0.0], [np.nan], [2.5]]),
        "random": rng.normal(size=(3920, 7)) * 30, "wide": rng.normal(size=(9, 23)),
    }


class TestRowMax:
    """`row_max` and `_softmax_rows` keep every bit of the
    `ndarray.max(axis=1)` formulation."""

    @pytest.mark.parametrize("name", list(_row_max_cases()))
    def test_bits_match_method_max(self, name):
        z = _row_max_cases()[name]
        assert row_max(z).tobytes() == z.max(axis=1).tobytes()
        assert row_max(z).shape == (len(z),)

    @pytest.mark.parametrize("name", list(_row_max_cases()))
    def test_softmax_bits_match_method_max(self, name):
        z = _row_max_cases()[name]
        with np.errstate(invalid="ignore"):
            want = z - z.max(axis=1, keepdims=True)
            np.exp(want, out=want)
            want /= want.sum(axis=1, keepdims=True)
            got = _softmax_rows(z.copy())
        assert got.tobytes() == want.tobytes()

    def test_strided_input(self):
        z = np.random.default_rng(1).normal(size=(20, 14))[::2, ::2]
        assert row_max(z).tobytes() == z.max(axis=1).tobytes()


class TestForward:
    def test_zero_parameters(self):
        m = zero_model()
        out = forward_one(m, [1.0, -2.0, 0.5])
        np.testing.assert_allclose(out["probs"], np.full(3, 1 / 3))
        assert out["weight"] == pytest.approx(0.5)

    def test_saturated_weight_one(self):
        m = saturated_weight_model(40.0)
        out = forward_one(m, [0.3, 1.0, -0.4])
        assert out["weight"] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out["weighted_probs"], out["probs"], atol=1e-10)

    def test_weighted_probs_recomputed(self):
        m = init_model(3, 4, 2, 3, seed=7)
        out = forward_one(m, [0.5, -1.2, 2.0])
        np.testing.assert_allclose(
            out["weighted_probs"], softmax(out["weight"] * out["logits"]), atol=1e-12
        )
        np.testing.assert_allclose(out["probs"], softmax(out["logits"]), atol=1e-12)

    def test_batch_matches_single(self):
        m = init_model(3, 4, 2, 3, seed=1)
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((5, 3))
        out = forward_batch(m, feats)
        for i in range(5):
            single = forward_one(m, feats[i])
            np.testing.assert_allclose(out["probs"][i], single["probs"], atol=1e-12)
            assert out["weight"][i] == pytest.approx(single["weight"])

    @pytest.mark.parametrize("n,dim,k", [(1, 16, 7), (7, 16, 7), (64, 16, 7), (33, 5, 3),
                                         (300, 3, 2), (3919, 16, 7)])
    def test_bits_match_layerwise_reference(self, n, dim, k):
        # Reports stay byte-identical only if the shared forward keeps every
        # float operation of the layer-by-layer one, whichever outputs a
        # caller asks for.
        rng = np.random.default_rng(n)
        m = init_model(dim, 16, 4, k, seed=n)
        feats = rng.standard_normal((n, dim)) * 3.0
        want = reference_forward(m, feats)
        subsets = [c for r in range(1, len(OUTPUTS) + 1)
                   for c in itertools.combinations(OUTPUTS, r)]
        for outputs, out in [(OUTPUTS, forward_batch(m, feats))] + [
            (subset, forward_batch(m, feats, subset)) for subset in subsets
        ]:
            assert out.keys() == set(outputs)
            for key in outputs:
                assert out[key].shape == want[key].shape
                assert out[key].tobytes() == want[key].tobytes(), (outputs, key)

    def test_bad_batch_shape(self):
        m = init_model(3, 4, 2, 3, seed=0)
        with pytest.raises(ConfigurationError):
            forward_batch(m, np.zeros((4, 5)))

    def test_probs_memory_is_bounded_by_the_embedding_and_two_logit_blocks(self):
        # 20,000 rows, 16 features and embedding units, 7 classes: the
        # embedding is 2.44 MiB and a logit block 1.07 MiB. The probs
        # overwrite the logits, and the row max reads one transposed copy of
        # them; a kept pre-activation array raises the peak to 7.2 MiB.
        n, embed, k = 20_000, 16, 7
        m = init_model(16, embed, 4, k, seed=0)
        feats = np.random.default_rng(0).standard_normal((n, 16))
        tracemalloc.start()
        try:
            forward_batch(m, feats, ("probs",))
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < (n * embed + 2 * n * k) * 8 / 2**20 + 0.5, peak


class TestWceLoss:
    """`batch_loss`: cross-entropy on the weight-scaled logits."""

    def test_weight_one_reduces_to_plain_ce(self):
        m = saturated_weight_model(40.0)
        x = np.array([[1.0, 0.2, -0.5]])
        probs = forward_batch(m, x)["probs"][0]
        assert batch_loss(m, x, [1]) == pytest.approx(cross_entropy(probs, 1), abs=1e-9)

    def test_weight_zero_gives_log_k(self):
        m = saturated_weight_model(-40.0)
        x = np.array([[1.0, 0.2, -0.5]])
        assert batch_loss(m, x, [2]) == pytest.approx(math.log(3), abs=1e-9)

    def test_matches_scalar_recomputation(self):
        m = init_model(3, 4, 2, 3, seed=11)
        x = np.array([0.7, -0.3, 1.1])
        out = forward_one(m, x)
        expected = cross_entropy(softmax(out["weight"] * out["logits"]), 1)
        assert batch_loss(m, x[None, :], [1]) == pytest.approx(expected, abs=1e-12)

    def test_label_out_of_range(self):
        m = init_model(3, 4, 2, 3, seed=0)
        for label in (5, 3, -1):
            with pytest.raises(ConfigurationError):
                batch_loss(m, np.zeros((2, 3)), [0, label])


class TestBackward:
    def test_zero_gradient_at_saturated_optimum(self):
        m = SciuModel(
            encoder=LinearLayer(np.eye(2), np.array([1.0, 1.0])),
            classifier=LinearLayer(
                np.array([[50.0, 50.0], [-50.0, -50.0]]), np.zeros(2)
            ),
            wb_hidden=LinearLayer(np.zeros((2, 2)), np.zeros(2)),
            wb_out=LinearLayer(np.zeros((1, 2)), np.array([40.0])),
        )
        grads, loss = backward_batch(m, np.array([[1.0, 1.0]]), np.array([0]))
        total = math.sqrt(sum(float(np.sum(g**2)) for g in grads))
        assert total < 1e-6
        # The label prob is exactly 1: the loss is +0.0, as the mean of
        # negated logs gives it, not -0.0.
        assert np.float64(loss).tobytes() == bytes(8)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        m = init_model(3, 4, 2, 3, seed=5)
        feats = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        grads, _ = backward_batch(m, feats, labels)
        fd = finite_difference_gradient(
            lambda: batch_loss(m, feats, labels), m.parameters()
        )
        for g, f in zip(grads, fd):
            denom = max(np.abs(f).max(), 1e-8)
            assert np.abs(g - f).max() / denom < 1e-4

    def test_higher_weight_gives_larger_classifier_gradient(self):
        # Same input (hence same logits); only the weight-branch bias differs.
        x = np.array([[0.4, -0.9, 1.3]])
        label = np.array([2])  # a confidently wrong label for this input
        g_high, _ = backward_batch(saturated_weight_model(3.0, seed=4), x, label)
        g_low, _ = backward_batch(saturated_weight_model(-3.0, seed=4), x, label)
        assert np.linalg.norm(g_high[2]) >= np.linalg.norm(g_low[2])

    def test_loss_value_matches_batch_loss(self):
        m = init_model(3, 4, 2, 3, seed=9)
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, 6)
        _, loss = backward_batch(m, feats, labels)
        assert loss == pytest.approx(batch_loss(m, feats, labels), abs=1e-12)

    def test_relu_mask_of_the_activation_is_that_of_its_input(self):
        # `backward_batch` masks on the activation max(y, 0) > 0, the
        # reference on y > 0. A product of BLAS gives +0.0 at a zero weight
        # row whatever the signs, so -0.0 and NaN are checked here.
        y = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0])
        np.testing.assert_array_equal(np.maximum(y, 0.0) > 0, y > 0)

    # (rows, classes, weight-branch output bias, at the ReLU kink) per seed.
    # 16 rows is the ragged last minibatch of a 3,920-row epoch; 23 classes
    # take numpy's pairwise sum along the class axis; a bias of +40 saturates
    # w to 1.0, so 1 - w is 0, and -40 drives w towards 0. At the kink, zero
    # weight rows and +0.0/-0.0 biases make half the encoder's and hidden
    # layer's pre-activations exactly zero, where the ReLU mask the reference
    # takes from them and the one `backward_batch` takes from the activations
    # must agree.
    BITS_CASES = [
        (1, 7, None, False), (7, 7, None, False), (64, 7, None, False), (64, 7, None, False),
        (33, 7, None, False), (16, 7, None, False), (64, 2, None, False), (16, 2, None, False),
        (64, 23, None, False), (1, 23, None, False), (64, 7, 40.0, False), (16, 7, -40.0, False),
        (1, 2, 40.0, False), (33, 23, -40.0, False), (64, 7, None, True),
    ]

    @pytest.mark.parametrize("seed", range(len(BITS_CASES)))
    def test_bits_match_layerwise_reference(self, seed):
        # Training reports stay byte-identical only if the shared forward
        # and in-place gradient writes keep every float operation, so the
        # bytes are compared: an equality check takes -0.0 for 0.0.
        n, k, bias, kink = self.BITS_CASES[seed]
        rng = np.random.default_rng(seed)
        m = init_model(16, 16, 4, k, seed=seed)
        if bias is not None:
            m.wb_out.bias[:] = bias
        feats = rng.standard_normal((n, 16)) * 3.0
        if kink:
            for layer in (m.encoder, m.wb_hidden):
                layer.weight[::2] = 0.0
                layer.bias[::2] = np.resize([0.0, -0.0], layer.bias[::2].shape)
            pre_emb = linear_forward(m.encoder, feats)
            pre_hid = linear_forward(m.wb_hidden, relu(pre_emb))
            assert not pre_emb[:, ::2].any() and not pre_hid[:, ::2].any()
            assert pre_emb[:, 1::2].all() and pre_hid[:, 1::2].all()
        labels = rng.integers(0, k, n)
        grads, loss = backward_batch(m, feats, labels)
        want, want_loss = reference_backward(m, feats, labels)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        for g, w in zip(grads, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()


class TestFlatLayout:
    def test_parameters_are_views_of_flat_in_order(self):
        for name, m in {"init": init_model(3, 4, 2, 3, seed=6),
                        "hand-built": zero_model()}.items():
            params = m.parameters()
            assert m.flat.dtype == np.float64 and m.flat.flags.c_contiguous
            assert m.flat.size == sum(p.size for p in params) == m.grad.size
            assert all(np.shares_memory(p, m.flat) for p in params), name
            m.flat[:] = np.arange(m.flat.size)
            np.testing.assert_array_equal(
                np.concatenate([p.ravel() for p in params]), m.flat
            )

    def test_edit_through_layer_shows_in_flat(self):
        m = zero_model(input_dim=3, embed=4, hidden=2, n_classes=3)
        m.classifier.bias[1] = 7.0
        m.wb_out.weight[0, 1] = -2.0
        offset = 4 * 3 + 4 + 3 * 4  # encoder weight and bias, classifier weight
        assert m.flat[offset + 1] == 7.0
        assert m.flat[-2] == -2.0
        assert np.count_nonzero(m.flat) == 2

    def test_flat_step_equals_per_array_step(self):
        rng = np.random.default_rng(3)
        m = init_model(5, 6, 3, 4, seed=1)
        m.grad[:] = rng.standard_normal(m.grad.size)
        velocity = rng.standard_normal(m.flat.size)
        params = [p.copy() for p in m.parameters()]
        grads = split_like(m.grad.copy(), params)
        velocities = split_like(velocity.copy(), params)
        sgd_momentum_step(params, grads, velocities, 0.05, 0.9)
        sgd_momentum_step([m.flat], [m.grad], [velocity], 0.05, 0.9)
        np.testing.assert_array_equal(
            np.concatenate([p.ravel() for p in params]), m.flat
        )
        np.testing.assert_array_equal(
            np.concatenate([v.ravel() for v in velocities]), velocity
        )

    def test_grads_are_views_of_grad(self):
        rng = np.random.default_rng(4)
        m = init_model(3, 4, 2, 3, seed=2)
        feats = rng.standard_normal((5, 3))
        grads, _ = backward_batch(m, feats, rng.integers(0, 3, 5))
        assert [g.shape for g in grads] == [p.shape for p in m.parameters()]
        assert all(np.shares_memory(g, m.grad) for g in grads)
        np.testing.assert_array_equal(
            np.concatenate([g.ravel() for g in grads]), m.grad
        )
        first = grads[0].copy()
        backward_batch(m, -feats, rng.integers(0, 3, 5))
        assert not np.array_equal(grads[0], first)  # overwritten by the next call


class TestModelDimensions:
    @pytest.mark.parametrize("layer,shape,message", [
        ("classifier", (3, 5), "classifier input dim != encoder output dim"),
        ("wb_hidden", (2, 5), "weight branch input dim != encoder output dim"),
        ("wb_out", (1, 3), "weight branch output layer must map hidden -> 1"),
        ("wb_out", (2, 2), "weight branch output layer must map hidden -> 1"),
    ])
    def test_mismatched_layer_raises(self, layer, shape, message):
        shapes = {"encoder": (4, 3), "classifier": (3, 4), "wb_hidden": (2, 4), "wb_out": (1, 2)}
        shapes[layer] = shape
        layers = {name: LinearLayer(np.zeros(s), np.zeros(s[0])) for name, s in shapes.items()}
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            SciuModel(**layers)


class TestInit:
    @pytest.mark.parametrize("embed,n_classes", [(4, 2**70), (-1, 3)])
    def test_unbuildable_sizes_raise_configuration_error(self, embed, n_classes):
        want = (f"^cannot build a model with input, embed and hidden dims 2, {embed}, 2 "
                f"and {n_classes} classes: ")
        with pytest.raises(ConfigurationError, match=want):
            init_model(2, embed, 2, n_classes, seed=0)

    def test_same_seed_identical(self):
        a = init_model(5, 6, 3, 4, seed=2)
        b = init_model(5, 6, 3, 4, seed=2)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_differs(self):
        a = init_model(5, 6, 3, 4, seed=2)
        b = init_model(5, 6, 3, 4, seed=3)
        assert any(
            not np.array_equal(pa, pb)
            for pa, pb in zip(a.parameters(), b.parameters())
        )

    def test_initial_weight_near_half(self):
        m = init_model(8, 8, 4, 5, seed=0)
        rng = np.random.default_rng(1)
        out = forward_batch(m, rng.standard_normal((1000, 8)))
        assert 0.4 <= out["weight"].mean() <= 0.6

    def test_initial_loss_near_log_k(self):
        k = 5
        m = init_model(8, 8, 4, k, seed=0)
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((500, 8))
        labels = np.tile(np.arange(k), 100)
        assert batch_loss(m, feats, labels) == pytest.approx(math.log(k), abs=0.1)
