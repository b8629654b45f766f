import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sciu.errors import ConfigurationError
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


class TestLinearForward:
    def test_identity(self):
        layer = LinearLayer(np.eye(2), np.zeros(2))
        np.testing.assert_allclose(linear_forward(layer, np.array([3.0, -1.0])), [3, -1])

    def test_zero_weight_returns_bias(self):
        layer = LinearLayer(np.zeros((2, 2)), np.array([1.0, 2.0]))
        np.testing.assert_allclose(linear_forward(layer, np.array([5.0, -7.0])), [1, 2])

    def test_hand_multiply(self):
        layer = LinearLayer(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))
        np.testing.assert_allclose(linear_forward(layer, np.array([1.0, 1.0])), [3, 7])

    def test_dimension_mismatch(self):
        layer = LinearLayer(np.eye(2), np.zeros(2))
        with pytest.raises(ConfigurationError):
            linear_forward(layer, np.zeros(3))

    def test_bias_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            LinearLayer(np.eye(2), np.zeros(3))

    def test_weight_must_be_2d(self):
        with pytest.raises(ConfigurationError, match="^weight must be 2-D and bias 1-D$"):
            LinearLayer(np.zeros(2), np.zeros(2))

    def test_non_finite_parameters(self):
        with pytest.raises(ConfigurationError, match="^layer parameters must be finite$"):
            LinearLayer(np.eye(2), np.array([0.0, np.inf]))


class TestRelu:
    def test_mixed(self):
        np.testing.assert_allclose(relu(np.array([-1.0, 0.0, 2.0])), [0, 0, 2])

    def test_all_negative(self):
        np.testing.assert_allclose(relu(np.array([-3.0, -0.5])), [0, 0])

    def test_all_positive_unchanged(self):
        x = np.array([0.1, 5.0])
        np.testing.assert_allclose(relu(x), x)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert sigmoid(40.0) == pytest.approx(1.0, abs=1e-12)
        assert sigmoid(-40.0) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_value(self):
        assert sigmoid(1.0) == pytest.approx(0.7310585786, abs=1e-9)

    @given(st.floats(min_value=-700, max_value=700))
    def test_range(self, x):
        # Strictly inside (0, 1) until float64 rounding saturates the tails.
        assert 0.0 <= sigmoid(x) <= 1.0
        if abs(x) <= 30:
            assert 0.0 < sigmoid(x) < 1.0


class TestSoftmax:
    def test_empty_logits(self):
        with pytest.raises(ConfigurationError, match="^softmax of empty logits$"):
            softmax(np.zeros(0))

    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3))

    def test_shift_invariance(self):
        np.testing.assert_allclose(
            softmax(np.array([5.0, 5.0 + 2.0])), softmax(np.array([0.0, 2.0]))
        )

    def test_two_class(self):
        out = softmax(np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [0.26894, 0.73106], atol=1e-5)

    @given(
        st.lists(st.floats(min_value=-500, max_value=500), min_size=1, max_size=10)
    )
    def test_sums_to_one(self, logits):
        out = softmax(np.array(logits))
        assert abs(out.sum() - 1.0) < 1e-9
        assert (out >= 0).all()  # tiny entries can underflow to exactly 0
        assert out[np.argmax(logits)] > 0


class TestCrossEntropy:
    def test_perfect(self):
        assert cross_entropy(np.array([0.0, 1.0]), 1) == 0.0

    def test_uniform(self):
        k = 5
        assert cross_entropy(np.full(k, 1 / k), 2) == pytest.approx(math.log(k))

    def test_half(self):
        assert cross_entropy(np.array([0.5, 0.5]), 0) == pytest.approx(0.693147, abs=1e-6)

    def test_clamped_at_zero_prob(self):
        loss = cross_entropy(np.array([1.0, 0.0]), 1)
        assert loss == pytest.approx(-math.log(1e-12))

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            assert cross_entropy(p, int(rng.integers(4))) >= 0.0


class TestSgdMomentum:
    def test_plain_sgd(self):
        p = [np.array([1.0, 2.0])]
        g = [np.array([0.5, -0.5])]
        v = [np.zeros(2)]
        sgd_momentum_step(p, g, v, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(p[0], [0.95, 2.05])

    def test_zero_grad_zero_velocity_noop(self):
        p = [np.array([1.0])]
        sgd_momentum_step(p, [np.zeros(1)], [np.zeros(1)], lr=0.1, momentum=0.9)
        np.testing.assert_allclose(p[0], [1.0])

    def test_two_step_unroll(self):
        # constant gradient g, lr 1, momentum 0.9: updates g then 1.9g
        p = [np.array([0.0])]
        v = [np.zeros(1)]
        g = [np.array([1.0])]
        sgd_momentum_step(p, g, v, lr=1.0, momentum=0.9)
        sgd_momentum_step(p, g, v, lr=1.0, momentum=0.9)
        np.testing.assert_allclose(p[0], [-(1.0 + 1.9)])

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            sgd_momentum_step(
                [np.zeros(2)], [np.zeros(3)], [np.zeros(2)], lr=0.1, momentum=0.0
            )

    def test_negative_lr_rejected(self):
        with pytest.raises(ConfigurationError):
            sgd_momentum_step([np.zeros(1)], [np.zeros(1)], [np.zeros(1)], -0.1, 0.0)

    def test_momentum_of_one_rejected(self):
        with pytest.raises(ConfigurationError, match=r"^momentum must be in \[0, 1\)$"):
            sgd_momentum_step([np.zeros(1)], [np.zeros(1)], [np.zeros(1)], 0.1, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="^params/grads/velocity length mismatch$"):
            sgd_momentum_step([np.zeros(1)] * 2, [np.zeros(1)], [np.zeros(1)] * 2, 0.1, 0.0)


class TestFiniteDifference:
    def test_step_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="^step size must be positive$"):
            finite_difference_gradient(lambda: 0.0, [np.zeros(1)], h=0.0)

    def test_quadratic(self):
        x = [np.array([3.0])]
        grad = finite_difference_gradient(lambda: 0.5 * float(x[0][0]) ** 2, x)
        assert grad[0][0] == pytest.approx(3.0, abs=1e-6)

    def test_constant(self):
        x = [np.array([1.0, -2.0])]
        grad = finite_difference_gradient(lambda: 7.0, x)
        np.testing.assert_allclose(grad[0], 0.0)

    def test_restores_params(self):
        x = [np.array([1.0, 2.0])]
        finite_difference_gradient(lambda: float(np.sum(x[0] ** 2)), x)
        np.testing.assert_allclose(x[0], [1.0, 2.0])

    def test_strided_view(self):
        # reshape(-1) copies this view, so the entries must be perturbed
        # through the view itself for the perturbation to reach `block`.
        block = np.arange(15.0).reshape(3, 5)
        w = block[:, :-1]
        grad = finite_difference_gradient(lambda: float(np.sum(block**2)), [w])
        np.testing.assert_allclose(grad[0], 2 * w, rtol=1e-6)
        np.testing.assert_array_equal(block, np.arange(15.0).reshape(3, 5))
