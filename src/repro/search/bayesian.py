"""Bayesian optimization with a Gaussian-process surrogate.

This is the "Bayesian-opt" competitor of the paper's evaluation (Figure 9).
It keeps a Gaussian process over the encoded configuration vectors, fit on
every observed (configuration, objective) pair, and proposes the candidate
with the highest expected improvement from a random pool.  The implementation
is deliberately the textbook one — RBF kernel, exact GP regression, full
refit on every observation — because those are precisely the properties the
paper criticizes: O(n^3) fitting cost, O(n^2) memory, no incremental
training, and poor handling of large mixed categorical/numeric spaces.
Crashed configurations are included with a pessimistic objective so the
surrogate at least avoids re-proposing known-bad points.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config.encoding import ConfigEncoder
from repro.config.parameter import ParameterKind
from repro.config.space import Configuration, ConfigSpace
from repro.platform.history import ExplorationHistory, TrialRecord
from repro.search.base import LearningSearch


class GaussianProcess:
    """Exact Gaussian-process regression with an RBF kernel."""

    def __init__(self, length_scale: float = 1.0, signal_variance: float = 1.0,
                 noise_variance: float = 1e-4) -> None:
        self.length_scale = length_scale
        self.signal_variance = signal_variance
        self.noise_variance = noise_variance
        self._X: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._L: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0

    def _kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        sq_dists = (
            np.sum(A ** 2, axis=1)[:, None]
            + np.sum(B ** 2, axis=1)[None, :]
            - 2.0 * A @ B.T
        )
        np.maximum(sq_dists, 0.0, out=sq_dists)
        return self.signal_variance * np.exp(-0.5 * sq_dists / (self.length_scale ** 2))

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        """Fit the GP on (X, y); cost is cubic in the number of samples."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) and y must be (n,)")
        self._y_mean = float(np.mean(y)) if y.size else 0.0
        self._y_std = float(np.std(y)) if y.size else 1.0
        if self._y_std < 1e-12:
            self._y_std = 1.0
        centred = (y - self._y_mean) / self._y_std
        K = self._kernel(X, X) + self.noise_variance * np.eye(X.shape[0])
        self._L = np.linalg.cholesky(K)
        self._alpha = np.linalg.solve(self._L.T, np.linalg.solve(self._L, centred))
        self._X = X

    @property
    def is_fitted(self) -> bool:
        return self._X is not None and self._X.shape[0] > 0

    def predict(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return posterior mean and standard deviation for each row of X."""
        X = np.asarray(X, dtype=np.float64)
        if not self.is_fitted:
            return np.zeros(X.shape[0]), np.full(X.shape[0], math.sqrt(self.signal_variance))
        K_star = self._kernel(X, self._X)
        mean = K_star @ self._alpha
        v = np.linalg.solve(self._L, K_star.T)
        variance = self.signal_variance - np.sum(v ** 2, axis=0)
        np.maximum(variance, 1e-12, out=variance)
        return mean * self._y_std + self._y_mean, np.sqrt(variance) * self._y_std


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float,
                         xi: float = 0.01) -> np.ndarray:
    """Expected improvement of a maximization problem."""
    std = np.maximum(std, 1e-12)
    improvement = mean - best - xi
    z = improvement / std
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * z ** 2) / math.sqrt(2.0 * math.pi)
    return improvement * cdf + std * pdf


class BayesianOptimizationSearch(LearningSearch):
    """GP-based Bayesian optimization over the encoded configuration space."""

    name = "bayesian"

    def __init__(self, space: ConfigSpace, seed: int = 0,
                 favored_kinds: Optional[Sequence[ParameterKind]] = None,
                 candidate_pool_size: int = 128, initial_random: int = 8,
                 length_scale: float = 2.0, maximize: bool = True,
                 crash_penalty_quantile: float = 0.1) -> None:
        super().__init__(space, seed=seed, favored_kinds=favored_kinds)
        self.encoder = ConfigEncoder(space)
        self.candidate_pool_size = candidate_pool_size
        self.initial_random = initial_random
        self.maximize = maximize
        self.crash_penalty_quantile = crash_penalty_quantile
        self.gp = GaussianProcess(length_scale=length_scale)
        self._X: List[np.ndarray] = []
        self._y: List[float] = []
        self._crashed: List[bool] = []

    # -- objective bookkeeping -----------------------------------------------------
    def _signed(self, objective: float) -> float:
        """Internally the GP always maximizes; flip the sign when minimizing."""
        return objective if self.maximize else -objective

    def _crash_value(self) -> float:
        """Objective assigned to crashed configurations (pessimistic)."""
        successes = [y for y, crashed in zip(self._y, self._crashed) if not crashed]
        if not successes:
            return 0.0
        return float(np.quantile(successes, self.crash_penalty_quantile))

    def _remember(self, record: TrialRecord) -> None:
        super()._remember(record)
        vector = self.encoder.encode(record.configuration)
        self._X.append(vector)
        self._crashed.append(record.crashed)
        if record.crashed or record.objective is None:
            self._y.append(math.nan)
        else:
            self._y.append(self._signed(record.objective))

    def _fit(self) -> bool:
        if len(self._X) < 2:
            return False
        X = np.vstack(self._X)
        crash_value = self._crash_value()
        y = np.array([crash_value if math.isnan(v) else v for v in self._y])
        # The cubic refit on every single observation is the scalability
        # problem the paper points out; we keep it faithful.
        self.gp.fit(X, y)
        return True

    # -- proposal ----------------------------------------------------------------------
    def _ranked_pool(self, history: ExplorationHistory) -> Tuple[List[Configuration], np.ndarray]:
        """Sample a candidate pool and rank it by expected improvement.

        Pool slots are deduplicated against the history (O(1) membership
        index), so on small spaces the acquisition step does not waste
        candidates on configurations whose outcome is already known.  On
        large spaces collisions essentially never happen and the draw
        sequence is unchanged.
        """
        candidates = self.sampler.sample_pool(self.candidate_pool_size,
                                              history=history)
        matrix = self.encoder.encode_batch(candidates)
        mean, std = self.gp.predict(matrix)
        observed = [v for v in self._y if not math.isnan(v)]
        best = max(observed) if observed else 0.0
        scores = expected_improvement(mean, std, best)
        return candidates, np.argsort(-scores)

    def propose(self, history: ExplorationHistory,
                pending: Sequence[Configuration] = ()) -> Configuration:
        in_flight = set(pending)
        if len(self._X) < self.initial_random or not self._fit():
            return self.sampler.sample_unique(history, exclude=in_flight)
        candidates, order = self._ranked_pool(history)
        for index in order:
            candidate = candidates[int(index)]
            if (not history.contains_configuration(candidate)
                    and candidate not in in_flight):
                return candidate
        return self.sampler.sample_unique(history, exclude=in_flight)

    def propose_batch(self, history: ExplorationHistory, k: int) -> List[Configuration]:
        """Take the top-*k* distinct candidates from one EI scoring pass.

        The surrogate is fit once for the whole batch (no fantasized
        observations between picks), so a batch costs one cubic fit instead
        of *k* — the batched counterpart of the paper's criticism of the
        per-observation refit.
        """
        if k < 1:
            raise ValueError("batch size must be at least 1")
        if len(self._X) < self.initial_random or not self._fit():
            return self.sampler.sample_batch_unique(history, k)
        candidates, order = self._ranked_pool(history)
        return self.sampler.fill_batch(
            (candidates[int(index)] for index in order), history, k)
