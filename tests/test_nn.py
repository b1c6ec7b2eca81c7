"""Unit tests for the numpy neural-network stack (layers, losses, optimizer)."""

import numpy as np
import pytest

from repro.nn.layers import Dense, Dropout, RBFLayer, ReLU, squared_distances
from repro.nn.losses import (
    chamfer_distance,
    heteroscedastic_regression_loss,
    softmax_cross_entropy,
)
from repro.nn.normalize import StandardScaler
from repro.nn.optimizer import Adam
from tests.oracles import adam_step_reference, squared_distances_reference


RNG = np.random.default_rng(0)


def numerical_gradient(function, array, epsilon=1e-6):
    """Central-difference gradient of a scalar function of *array*."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = function()
        flat[index] = original - epsilon
        minus = function()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return grad


class TestDense:
    def test_forward_shape(self):
        layer = Dense(5, 3, rng=RNG)
        out = layer.forward(np.ones((4, 5)))
        assert out.shape == (4, 3)

    def test_backward_gradient_matches_numerical(self):
        layer = Dense(4, 3, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(6, 4))
        target_grad = np.random.default_rng(3).normal(size=(6, 3))

        def loss():
            return float(np.sum(layer.forward(x) * target_grad))

        layer.zero_grad()
        layer.forward(x)
        grad_input = layer.backward(target_grad)

        numeric_w = numerical_gradient(loss, layer.weights)
        assert np.allclose(numeric_w, layer.grad_weights, atol=1e-4)
        numeric_x = numerical_gradient(loss, x)
        assert np.allclose(numeric_x, grad_input, atol=1e-4)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Dense(0, 3)

    def test_backward_before_forward_raises(self):
        layer = Dense(2, 2)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))


class TestReLUDropout:
    def test_relu_masks_negative(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 2.0]]))
        assert out.tolist() == [[0.0, 2.0]]
        grad = layer.backward(np.array([[1.0, 1.0]]))
        assert grad.tolist() == [[0.0, 1.0]]

    def test_dropout_identity_at_inference(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((4, 4))
        assert np.allclose(layer.forward(x, training=False), x)

    def test_dropout_preserves_expectation(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((2000, 10))
        out = layer.forward(x, training=True)
        assert abs(out.mean() - 1.0) < 0.1

    def test_dropout_rate_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestSquaredDistances:
    @pytest.mark.parametrize("dim", [1, 3, 24, 498])
    def test_matches_difference_tensor(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(32, dim))
        b = rng.normal(loc=0.5, scale=2.0, size=(24, dim))
        assert np.allclose(squared_distances(a, b), squared_distances_reference(a, b),
                           rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("dim", [2, 120, 498, 1000])
    def test_identical_rows_are_exactly_zero(self, dim):
        rng = np.random.default_rng(dim)
        for scale in (1e-3, 1.0, 50.0):
            a = rng.normal(size=(192, dim)) * scale
            sq = squared_distances(a, a.copy())
            assert np.all(np.diag(sq) == 0.0)
            assert np.all(sq >= 0.0)
            assert np.all(np.diag(squared_distances(a[:5], a)[:, :5]) == 0.0)


class TestRBFLayer:
    def test_activation_bounds_and_peak(self):
        layer = RBFLayer(3, 4, gamma=1.0, rng=np.random.default_rng(0))
        layer.centroids[0] = np.array([1.0, 2.0, 3.0])
        out = layer.forward(np.array([[1.0, 2.0, 3.0]]))
        assert out.shape == (1, 4)
        assert out[0, 0] == pytest.approx(1.0)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_far_input_gives_low_activation(self):
        layer = RBFLayer(3, 2, gamma=0.5, rng=np.random.default_rng(0))
        out = layer.forward(np.array([[100.0, 100.0, 100.0]]))
        assert np.all(out < 1e-3)

    def test_backward_gradient_matches_numerical(self):
        layer = RBFLayer(3, 2, gamma=0.7, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(4, 3))
        weights = np.random.default_rng(3).normal(size=(4, 2))

        def loss():
            return float(np.sum(layer.forward(x) * weights))

        layer.zero_grad()
        layer.forward(x)
        grad_input = layer.backward(weights)
        numeric_c = numerical_gradient(loss, layer.centroids)
        assert np.allclose(numeric_c, layer.grad_centroids, atol=1e-4)
        numeric_x = numerical_gradient(loss, x)
        assert np.allclose(numeric_x, grad_input, atol=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RBFLayer(3, 0)
        with pytest.raises(ValueError):
            RBFLayer(3, 2, gamma=0.0)


class TestSequential:
    def test_stack_trains_toward_target(self):
        rng = np.random.default_rng(5)
        layers = [Dense(3, 16, rng=rng), ReLU(), Dense(16, 1, rng=rng)]
        optimizer = Adam(learning_rate=0.01)
        x = rng.normal(size=(64, 3))
        y = (x[:, 0] * 2.0 - x[:, 1]).reshape(-1, 1)
        first_loss = None
        for _ in range(200):
            for layer in layers:
                layer.zero_grad()
            prediction = x
            for layer in layers:
                prediction = layer.forward(prediction, training=True)
            error = prediction - y
            loss = float(np.mean(error ** 2))
            if first_loss is None:
                first_loss = loss
            grad = 2.0 * error / len(x)
            for layer in reversed(layers):
                grad = layer.backward(grad)
            optimizer.step([pair for layer in layers for pair in layer.parameters()])
        assert loss < first_loss * 0.2


class TestLosses:
    def test_softmax_cross_entropy_perfect_prediction(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        labels = np.array([0, 1])
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss < 1e-4
        assert np.allclose(grad, 0.0, atol=1e-4)

    def test_softmax_cross_entropy_gradient_matches_numerical(self):
        logits = np.random.default_rng(0).normal(size=(5, 2))
        labels = np.array([0, 1, 1, 0, 1])

        def loss():
            value, _ = softmax_cross_entropy(logits, labels)
            return value

        _, grad = softmax_cross_entropy(logits, labels)
        numeric = numerical_gradient(loss, logits)
        assert np.allclose(numeric, grad, atol=1e-5)

    def test_softmax_cross_entropy_empty(self):
        loss, grad = softmax_cross_entropy(np.empty((0, 2)), np.empty((0,), dtype=int))
        assert loss == 0.0

    def test_heteroscedastic_loss_gradients(self):
        rng = np.random.default_rng(1)
        mean = rng.normal(size=6)
        log_var = rng.normal(size=6) * 0.3
        targets = rng.normal(size=6)

        def loss_mean():
            value, _, _ = heteroscedastic_regression_loss(mean, log_var, targets)
            return value

        _, grad_mean, grad_log_var = heteroscedastic_regression_loss(mean, log_var, targets)
        assert np.allclose(numerical_gradient(loss_mean, mean), grad_mean, atol=1e-5)
        assert np.allclose(numerical_gradient(loss_mean, log_var), grad_log_var, atol=1e-5)

    def test_heteroscedastic_loss_masks_nan_targets(self):
        mean = np.array([1.0, 2.0])
        log_var = np.zeros(2)
        targets = np.array([np.nan, 2.0])
        loss, grad_mean, _ = heteroscedastic_regression_loss(mean, log_var, targets)
        assert grad_mean[0] == 0.0
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_heteroscedastic_loss_all_masked(self):
        loss, grad_mean, grad_log_var = heteroscedastic_regression_loss(
            np.ones(3), np.zeros(3), np.full(3, np.nan))
        assert loss == 0.0
        assert np.all(grad_mean == 0.0)

    def test_chamfer_zero_when_centroids_on_points(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        loss, grad = chamfer_distance(points.copy(), points)
        assert loss == pytest.approx(0.0)
        assert np.allclose(grad, 0.0)

    def test_chamfer_gradient_matches_numerical(self):
        rng = np.random.default_rng(2)
        centroids = rng.normal(size=(3, 2))
        points = rng.normal(size=(7, 2))

        def loss():
            value, _ = chamfer_distance(centroids, points)
            return value

        _, grad = chamfer_distance(centroids, points)
        numeric = numerical_gradient(loss, centroids)
        assert np.allclose(numeric, grad, atol=1e-4)

    def test_chamfer_pulls_centroids_toward_data(self):
        centroids = np.array([[5.0, 5.0]])
        points = np.zeros((10, 2))
        optimizer = Adam(learning_rate=0.3)
        for _ in range(200):
            _, grad = chamfer_distance(centroids, points)
            optimizer.step([(centroids, grad)])
        assert np.linalg.norm(centroids) < 0.5

    def test_chamfer_accepts_precomputed_distances(self):
        """The model passes rbf1's (points, centroids) matrix, transposed."""
        rng = np.random.default_rng(4)
        centroids = rng.normal(size=(24, 40))
        points = rng.normal(size=(32, 40))
        loss, grad = chamfer_distance(centroids, points, weight=0.05)
        for sq_dist in (squared_distances(centroids, points),
                        squared_distances(points, centroids).T):
            given_loss, given_grad = chamfer_distance(centroids, points, weight=0.05,
                                                      sq_dist=sq_dist)
            assert given_loss == pytest.approx(loss, rel=1e-12)
            assert np.allclose(given_grad, grad, rtol=1e-12, atol=1e-15)

    def test_chamfer_empty_points(self):
        loss, grad = chamfer_distance(np.ones((2, 3)), np.empty((0, 3)))
        assert loss == 0.0
        assert grad.shape == (2, 3)


class TestAdam:
    def test_minimizes_quadratic(self):
        x = np.array([5.0, -3.0])
        optimizer = Adam(learning_rate=0.1)
        for _ in range(300):
            grad = 2.0 * x
            optimizer.step([(x, grad)])
        assert np.allclose(x, 0.0, atol=1e-2)

    def test_learning_rate_validation(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=0.0)

    def test_step_is_bit_identical_to_textbook_expression(self):
        rng = np.random.default_rng(9)
        shapes = [(40, 7), (7,), (3, 5)]
        start = [rng.normal(size=shape) for shape in shapes]
        runs = []
        for step in (Adam.step, adam_step_reference):
            optimizer = Adam(learning_rate=0.01)
            parameters = [(value.copy(), np.zeros_like(value)) for value in start]
            gradients = np.random.default_rng(10)
            for _ in range(50):
                for _, grad in parameters:
                    grad[...] = gradients.normal(size=grad.shape)
                step(optimizer, parameters)
            runs.append([param for param, _ in parameters]
                        + optimizer._first_moment + optimizer._second_moment)
        fast, reference = runs
        for fast_array, reference_array in zip(fast, reference):
            assert fast_array.tobytes() == reference_array.tobytes()

    def test_reset(self):
        optimizer = Adam()
        x = np.array([1.0])
        optimizer.step([(x, np.array([1.0]))])
        optimizer.reset()
        assert optimizer._step == 0


class TestStandardScaler:
    def test_fit_transform_roundtrip(self):
        data = np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(100, 4))
        scaler = StandardScaler()
        transformed = scaler.fit_transform(data)
        assert np.allclose(transformed.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(transformed.std(axis=0), 1.0, atol=1e-9)
        assert np.allclose(scaler.inverse_transform(transformed), data)

    def test_constant_columns_tolerated(self):
        data = np.ones((10, 2))
        scaler = StandardScaler().fit(data)
        assert np.all(np.isfinite(scaler.transform(data)))

    def test_one_dimensional_input(self):
        data = np.array([1.0, 2.0, 3.0])
        scaler = StandardScaler()
        out = scaler.fit_transform(data)
        assert out.shape == (3,)
        assert np.allclose(scaler.inverse_transform(out), data)

    def test_unfitted_transform_is_identity(self):
        scaler = StandardScaler()
        data = np.array([[1.0, 2.0]])
        assert np.allclose(scaler.transform(data), data)

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.empty((0, 2)))
