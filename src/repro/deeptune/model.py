"""The DeepTune Model (DTM): multitask prediction with RBF uncertainty.

The DTM is a function ``F(x) -> (k_hat, y_hat, sigma_hat)`` mapping an encoded
configuration to its crash probability, its expected performance, and the
uncertainty of that performance prediction (§3.2, Figure 4).  It has two
branches:

* the **prediction branch** ``F_p`` — a conventional feedforward network
  (dense layers, ReLU activations, dropout) whose last layer outputs the
  crash-class logits, the predicted performance and a predicted log-variance
  (the aleatoric part of the Kendall & Gal regression loss);
* the **uncertainty branch** ``F_u`` — a stack of Gaussian RBF layers, each
  running parallel to a prediction layer and consuming the concatenation of
  the previous prediction-branch latents and the previous RBF activations.
  Because each RBF neuron responds by distance to a learned centroid
  (a data prototype fitted by the Chamfer regularizer), unfamiliar
  configurations produce uniformly low activations, which the model reports
  as high uncertainty.

Training minimizes ``L = L_CCE + L_Reg + L_Cham`` and is *incremental*: the
model keeps a replay buffer of all observations and runs a bounded number of
minibatch steps per new observation, so the per-iteration cost stays constant
as the search progresses — the property Figure 7 contrasts with Unicorn.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.layers import Dense, Dropout, RBFLayer, ReLU, squared_distances
from repro.nn.losses import (
    chamfer_distance,
    heteroscedastic_regression_loss,
    softmax_cross_entropy,
)
from repro.nn.buffers import ensure_row_capacity
from repro.nn.normalize import RunningMoments, StandardScaler
from repro.nn.optimizer import Adam

Array = np.ndarray

#: the trainable arrays in :meth:`DeepTuneModel.state_dict` key order.
_WEIGHT_NAMES = ("dense1.weights", "dense1.bias", "dense2.weights", "dense2.bias",
                 "head.weights", "head.bias", "rbf1.centroids", "rbf2.centroids")


class DTMPrediction:
    """Per-sample predictions of the DTM."""

    def __init__(self, crash_probability: Array, performance: Array,
                 uncertainty: Array) -> None:
        self.crash_probability = crash_probability
        self.performance = performance
        self.uncertainty = uncertainty

    def __len__(self) -> int:
        return len(self.crash_probability)

    def __repr__(self) -> str:
        return "DTMPrediction(n={}, mean_crash={:.2f})".format(
            len(self), float(np.mean(self.crash_probability)) if len(self) else 0.0
        )


class DeepTuneModel:
    """The multitask neural network at the core of DeepTune."""

    def __init__(
        self,
        input_dim: int,
        hidden_dims: Tuple[int, int] = (96, 48),
        n_centroids: int = 24,
        gamma: float = 0.4,
        dropout: float = 0.1,
        learning_rate: float = 2e-3,
        chamfer_weight: float = 0.05,
        seed: int = 0,
    ) -> None:
        if input_dim <= 0:
            raise ValueError("input_dim must be positive")
        self.input_dim = input_dim
        self.hidden_dims = tuple(hidden_dims)
        self.n_centroids = n_centroids
        self.gamma = gamma
        self.dropout_rate = dropout
        self.learning_rate = learning_rate
        self.chamfer_weight = chamfer_weight
        self.seed = seed
        self._rng = np.random.default_rng(seed)

        h1, h2 = self.hidden_dims
        # Prediction branch F_p.
        self.dense1 = Dense(input_dim, h1, rng=self._rng)
        self.relu1 = ReLU()
        self.drop1 = Dropout(dropout, rng=self._rng)
        self.dense2 = Dense(h1, h2, rng=self._rng)
        self.relu2 = ReLU()
        self.drop2 = Dropout(dropout, rng=self._rng)
        # Output: [crash logit 0, crash logit 1, performance mean, log variance].
        self.head = Dense(h2, 4, rng=self._rng)

        # Uncertainty branch F_u: RBF layers parallel to the prediction layers.
        # Gamma is expressed per the paper (for z-scored inputs); the effective
        # bandwidth is scaled by sqrt(dim) so activations stay informative on
        # configuration encodings with hundreds of columns.
        gamma0 = gamma * np.sqrt(input_dim)
        self.rbf1 = RBFLayer(input_dim, n_centroids, gamma=float(gamma0), rng=self._rng)
        rbf2_in = h1 + n_centroids
        gamma1 = gamma * np.sqrt(rbf2_in)
        self.rbf2 = RBFLayer(rbf2_in, n_centroids, gamma=float(gamma1), rng=self._rng)

        self.optimizer = Adam(learning_rate=learning_rate)
        self.rbf_optimizer = Adam(learning_rate=learning_rate * 5.0)

        self.feature_scaler = StandardScaler()
        self.target_scaler = StandardScaler()

        # Replay buffer of every observation seen so far.  Stored in
        # preallocated arrays grown by amortized doubling so appends are O(1)
        # and minibatch gathers never re-stack the whole history; scaler
        # statistics are maintained incrementally (Welford) at the same time.
        self._count = 0
        self._feature_buffer = np.empty((0, input_dim), dtype=np.float64)
        self._target_buffer = np.empty(0, dtype=np.float64)
        self._crash_buffer = np.empty(0, dtype=bool)
        self._feature_moments = RunningMoments()
        self._target_moments = RunningMoments()

    # -- bookkeeping --------------------------------------------------------------
    @property
    def observation_count(self) -> int:
        return self._count

    def replay_features(self, start: int) -> Array:
        """Raw feature rows of the replay buffer from row *start* on (a view)."""
        return self._feature_buffer[start:self._count]

    def add_observation(self, features: Array, target: Optional[float], crashed: bool) -> None:
        """Append one observed configuration to the replay buffer.

        *target* is the raw (unnormalized) objective value, or None for
        crashed configurations.
        """
        features = np.asarray(features, dtype=np.float64).reshape(-1)
        if features.shape[0] != self.input_dim:
            raise ValueError("expected {} features, got {}".format(self.input_dim,
                                                                   features.shape[0]))
        needed = self._count + 1
        self._feature_buffer = ensure_row_capacity(self._feature_buffer, needed)
        self._target_buffer = ensure_row_capacity(self._target_buffer, needed)
        self._crash_buffer = ensure_row_capacity(self._crash_buffer, needed)
        target_value = np.nan if (crashed or target is None) else float(target)
        self._feature_buffer[self._count] = features
        self._target_buffer[self._count] = target_value
        self._crash_buffer[self._count] = bool(crashed)
        self._count += 1
        self._feature_moments.update(features)
        if not np.isnan(target_value):
            self._target_moments.update(np.array([target_value]))

    def _refit_scalers(self) -> None:
        """Publish the incrementally maintained moments into the scalers."""
        self.feature_scaler.fit_from_moments(self._feature_moments)
        if self._target_moments.count >= 2:
            self.target_scaler.fit_from_moments(self._target_moments)

    # -- forward passes -------------------------------------------------------------
    def _forward_prediction(self, X: Array) -> Tuple[Array, Array]:
        """Training pass of F_p, ``(latent1, out)``, caching what backward reads."""
        d1 = self.dense1.forward(X, training=True)
        a1 = self.relu1.forward(d1, training=True)
        p1 = self.drop1.forward(a1, training=True)
        d2 = self.dense2.forward(p1, training=True)
        a2 = self.relu2.forward(d2, training=True)
        p2 = self.drop2.forward(a2, training=True)
        return a1, self.head.forward(p2, training=True)

    def _infer(self, X: Array) -> Tuple[Array, Array]:
        """Inference pass of F_p: ``(latent1, out)``, dropout off.

        It reads the weights directly instead of calling the layers'
        ``forward``, so a candidate pool leaves no activation cache behind.
        """
        d1 = X @ self.dense1.weights + self.dense1.bias
        a1 = d1 * (d1 > 0.0)
        d2 = a1 @ self.dense2.weights + self.dense2.bias
        a2 = d2 * (d2 > 0.0)
        return a1, a2 @ self.head.weights + self.head.bias

    # -- training ----------------------------------------------------------------------
    def train_step(self, X: Array, targets: Array, crashed: Array) -> Dict[str, float]:
        """One minibatch update of both branches; returns the loss components."""
        X = np.asarray(X, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        crashed = np.asarray(crashed, dtype=bool)
        for layer in (self.dense1, self.dense2, self.head, self.rbf1, self.rbf2):
            layer.zero_grad()

        latent1, out = self._forward_prediction(X)
        crash_logits = out[:, 0:2]
        mean = out[:, 2]
        log_var = out[:, 3]

        labels = crashed.astype(np.int64)
        loss_cce, grad_logits = softmax_cross_entropy(crash_logits, labels)

        mask = ~np.isnan(targets) & ~crashed
        loss_reg, grad_mean, grad_log_var = heteroscedastic_regression_loss(
            mean, log_var, targets, mask=mask)

        grad = self.head.backward(np.column_stack([grad_logits, grad_mean, grad_log_var]))
        grad = self.drop2.backward(grad)
        grad = self.relu2.backward(grad)
        grad = self.dense2.backward(grad)
        grad = self.drop1.backward(grad)
        grad = self.relu1.backward(grad)
        self.dense1.backward(grad)

        self.optimizer.step(self.dense1.parameters() + self.dense2.parameters()
                            + self.head.parameters())

        # Uncertainty branch: fit the centroids to the (detached) latent inputs
        # with the Chamfer regularizer.  rbf1's distance matrix serves both
        # phi1 and, transposed, rbf1's Chamfer term: the same pairs, and no
        # update in between.  phi2 feeds nothing in training.
        sq_dist1 = squared_distances(X, self.rbf1.centroids)
        z2 = np.concatenate([latent1, self.rbf1.activations(sq_dist1)], axis=1)
        loss_cham1, grad_c1 = chamfer_distance(self.rbf1.centroids, X,
                                               weight=self.chamfer_weight,
                                               sq_dist=sq_dist1.T)
        loss_cham2, grad_c2 = chamfer_distance(self.rbf2.centroids, z2,
                                               weight=self.chamfer_weight)
        self.rbf1.grad_centroids += grad_c1
        self.rbf2.grad_centroids += grad_c2
        self.rbf_optimizer.step(self.rbf1.parameters() + self.rbf2.parameters())

        return {
            "cce": loss_cce,
            "regression": loss_reg,
            "chamfer": loss_cham1 + loss_cham2,
            "total": loss_cce + loss_reg + loss_cham1 + loss_cham2,
        }

    def fit_incremental(self, steps: int = 30, batch_size: int = 32) -> Dict[str, float]:
        """Run a bounded number of minibatch steps over the replay buffer.

        Constant work per call keeps DeepTune's per-iteration cost flat no
        matter how long the search has been running.
        """
        if self.observation_count < 2:
            return {"cce": 0.0, "regression": 0.0, "chamfer": 0.0, "total": 0.0}
        self._refit_scalers()
        n = self._count
        raw_targets = self._target_buffer[:n]
        crashed = self._crash_buffer[:n]

        losses = {"cce": 0.0, "regression": 0.0, "chamfer": 0.0, "total": 0.0}
        for _ in range(steps):
            if n <= batch_size:
                batch = np.arange(n)
            else:
                batch = self._rng.choice(n, size=batch_size, replace=False)
            # Normalize only the sampled minibatch: per-step work is bounded
            # by the batch size, never by the history length.
            X_batch = self.feature_scaler.transform(self._feature_buffer[batch])
            targets_batch = raw_targets[batch].copy()
            finite = ~np.isnan(targets_batch)
            if self.target_scaler.is_fitted and finite.any():
                targets_batch[finite] = self.target_scaler.transform(
                    targets_batch[finite].reshape(-1, 1)).reshape(-1)
            step_losses = self.train_step(X_batch, targets_batch, crashed[batch])
            for key in losses:
                losses[key] += step_losses[key] / steps
        return losses

    # -- inference -------------------------------------------------------------------------
    def predict(self, X: Array) -> DTMPrediction:
        """Predict crash probability, performance and uncertainty for raw features."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        X_scaled = self.feature_scaler.transform(X)
        latent1, out = self._infer(X_scaled)
        logits = out[:, 0:2]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        softmax = exp / exp.sum(axis=1, keepdims=True)
        crash_probability = softmax[:, 1]

        performance = out[:, 2]
        if self.target_scaler.is_fitted:
            performance = self.target_scaler.inverse_transform(
                performance.reshape(-1, 1)).reshape(-1)

        phi1 = self.rbf1.activations(squared_distances(X_scaled, self.rbf1.centroids))
        z2 = np.concatenate([latent1, phi1], axis=1)
        phi2 = self.rbf2.activations(squared_distances(z2, self.rbf2.centroids))
        # Low maximum activation = no nearby prototype = unfamiliar sample.
        familiarity = phi2.max(axis=1)
        uncertainty = 1.0 - np.clip(familiarity, 0.0, 1.0)
        return DTMPrediction(crash_probability, performance, uncertainty)

    # -- persistence (used by transfer learning) -------------------------------------------
    def state_dict(self) -> Dict[str, Array]:
        """Snapshot every trainable array and the scaler statistics."""
        state = {name: self._weight(name).copy() for name in _WEIGHT_NAMES}
        for scaler_name in ("feature_scaler", "target_scaler"):
            scaler = getattr(self, scaler_name)
            if scaler.is_fitted:
                state[scaler_name + ".mean"] = scaler.mean_.copy()
                state[scaler_name + ".std"] = scaler.std_.copy()
        return state

    def load_state_dict(self, state: Dict[str, Array]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        for name in _WEIGHT_NAMES:
            self._weight(name)[...] = state[name]
        for scaler_name in ("feature_scaler", "target_scaler"):
            # an absent entry is a scaler that was not fitted yet
            fitted = scaler_name + ".mean" in state
            scaler = getattr(self, scaler_name)
            scaler.mean_ = np.array(state[scaler_name + ".mean"]) if fitted else None
            scaler.std_ = np.array(state[scaler_name + ".std"]) if fitted else None
        self.optimizer.reset()
        self.rbf_optimizer.reset()

    def _weight(self, name: str) -> Array:
        layer, attribute = name.split(".")
        return getattr(getattr(self, layer), attribute)

    # -- checkpointing ---------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """What later training and prediction read that no trial row holds.

        The weights use the zoo's :meth:`state_dict` codec.  The replay
        buffer and its moments are not exported: a resume rebuilds them by
        replaying the stored trials through :meth:`add_observation`.
        Gradient buffers and layer caches are overwritten before they are
        next read, so they are not exported either.
        """
        return {
            "weights": self.state_dict(),
            "optimizer": self.optimizer.export_state(),
            "rbf_optimizer": self.rbf_optimizer.export_state(),
            "rng": self._rng.bit_generator.state,
        }

    def import_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`export_state`; the replay
        buffer is left as it is."""
        self.load_state_dict(state["weights"])
        self.optimizer.import_state(state["optimizer"])
        self.rbf_optimizer.import_state(state["rbf_optimizer"])
        # in place, never a new Generator: the dropout layers hold this one
        self._rng.bit_generator.state = state["rng"]
