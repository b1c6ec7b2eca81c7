"""Neural-network layers with manual forward/backward passes.

Every layer caches what it needs during ``forward`` and returns input
gradients from ``backward``; trainable parameters and their accumulated
gradients are exposed through ``parameters()`` so any optimizer can update
them in place.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

Array = np.ndarray


def squared_distances(a: Array, b: Array) -> Array:
    """``out[i, j] = ||a_i - b_j||^2`` for two row sets, an (len(a), len(b)) matrix.

    Expanded as ``||a||^2 + ||b||^2 - 2 a.b^T``: one matrix product, no
    (len(a), len(b), dim) difference tensor.  The expansion cancels, so
    identical rows leave a rounding residue of either sign, bounded by about
    ``dim * eps * (||a||^2 + ||b||^2)``; every entry within that bound is
    set to exactly 0 in place, which also clamps the negatives.
    """
    a_norms = np.einsum("ij,ij->i", a, a)
    b_norms = np.einsum("ij,ij->i", b, b)
    sq_dist = a @ b.T
    sq_dist *= -2.0
    sq_dist += a_norms[:, None]
    sq_dist += b_norms[None, :]
    residue = (4.0 * a.shape[1] * np.finfo(np.float64).eps) * (a_norms[:, None] + b_norms[None, :])
    sq_dist[sq_dist <= residue] = 0.0
    return sq_dist


class Layer:
    """Base class: a differentiable transformation of a (batch, features) array."""

    def forward(self, inputs: Array, training: bool = False) -> Array:
        raise NotImplementedError

    def backward(self, grad_output: Array) -> Array:
        """Given dL/d(output), accumulate parameter gradients and return dL/d(input)."""
        raise NotImplementedError

    def parameters(self) -> List[Tuple[Array, Array]]:
        """Return (parameter, gradient) pairs; both are updated in place."""
        return []

    def zero_grad(self) -> None:
        for _, grad in self.parameters():
            grad.fill(0.0)


class Dense(Layer):
    """Fully connected affine layer with He-style initialization."""

    def __init__(self, in_dim: int, out_dim: int, rng: Optional[np.random.Generator] = None) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_dim)
        self.weights = rng.normal(0.0, scale, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._inputs: Optional[Array] = None

    def forward(self, inputs: Array, training: bool = False) -> Array:
        self._inputs = inputs
        return inputs @ self.weights + self.bias

    def backward(self, grad_output: Array) -> Array:
        if self._inputs is None:
            raise RuntimeError("backward called before forward")
        self.grad_weights += self._inputs.T @ grad_output
        self.grad_bias += grad_output.sum(axis=0)
        return grad_output @ self.weights.T

    def parameters(self) -> List[Tuple[Array, Array]]:
        return [(self.weights, self.grad_weights), (self.bias, self.grad_bias)]


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: Optional[Array] = None

    def forward(self, inputs: Array, training: bool = False) -> Array:
        self._mask = inputs > 0.0
        return inputs * self._mask

    def backward(self, grad_output: Array) -> Array:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float = 0.1, rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng or np.random.default_rng(0)
        self._mask: Optional[Array] = None

    def forward(self, inputs: Array, training: bool = False) -> Array:
        if not training or self.rate == 0.0:
            self._mask = None
            return inputs
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(inputs.shape) < keep) / keep
        return inputs * self._mask

    def backward(self, grad_output: Array) -> Array:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class RBFLayer(Layer):
    """Gaussian radial-basis-function layer (paper eq. 1).

    Each neuron holds a centroid ``c``; its activation for an input ``z`` is
    ``phi(z) = exp(-||z - c||^2 / (2 * gamma^2))``.  Activations close to 1
    mean the input resembles a learned prototype; activations near 0 flag an
    outlier, which is how the uncertainty branch detects unfamiliar
    configurations.
    """

    def __init__(self, in_dim: int, n_centroids: int, gamma: float = 0.1,
                 rng: Optional[np.random.Generator] = None) -> None:
        if n_centroids <= 0:
            raise ValueError("need at least one centroid")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        rng = rng or np.random.default_rng(0)
        self.gamma = gamma
        self.centroids = rng.normal(0.0, 1.0, size=(n_centroids, in_dim))
        self.grad_centroids = np.zeros_like(self.centroids)
        self._inputs: Optional[Array] = None
        self._activations: Optional[Array] = None

    def activations(self, sq_dist: Array) -> Array:
        """phi from ``squared_distances(inputs, centroids)``, (batch, centroids).

        Unlike :meth:`forward` it caches nothing, so a large candidate pool
        leaves nothing behind in the layer.
        """
        return np.exp(-sq_dist / (2.0 * self.gamma ** 2))

    def forward(self, inputs: Array, training: bool = False) -> Array:
        self._inputs = inputs
        self._activations = self.activations(squared_distances(inputs, self.centroids))
        return self._activations

    def backward(self, grad_output: Array) -> Array:
        if self._activations is None:
            raise RuntimeError("backward called before forward")
        z = self._inputs
        # d phi / d sq_dist = -phi / (2 gamma^2); d sq_dist / d z = 2 (z - c).
        # Summed over centroids (inputs) or the batch (centroids), the
        # difference (z - c) splits into two matrix products.
        common = grad_output * self._activations / (self.gamma ** 2)
        grad_inputs = -(common.sum(axis=1)[:, None] * z - common @ self.centroids)
        self.grad_centroids += common.T @ z - common.sum(axis=0)[:, None] * self.centroids
        return grad_inputs

    def parameters(self) -> List[Tuple[Array, Array]]:
        return [(self.centroids, self.grad_centroids)]
