"""Feature and target normalization helpers.

Besides the batch :class:`StandardScaler`, this module provides
:class:`RunningMoments` — a Welford online mean/variance accumulator — so the
DeepTune replay buffer can keep its scaler statistics up to date in O(dim)
per new observation instead of re-stacking and re-fitting the whole history
every iteration (the flat-per-iteration invariant of Figure 7/8).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

Array = np.ndarray


class RunningMoments:
    """Welford's online algorithm for per-column mean and variance.

    Numerically stable streaming moments: ``update`` folds one row in O(dim),
    and the resulting mean/std match a from-scratch batch fit to floating-
    point accuracy (the test suite asserts 1e-10 agreement after 500 updates).
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean: Optional[Array] = None
        self.m2: Optional[Array] = None

    def update(self, row: Array) -> None:
        """Fold one observation (a flat vector) into the running moments."""
        row = np.asarray(row, dtype=np.float64).reshape(-1)
        if self.mean is None:
            self.mean = np.zeros_like(row)
            self.m2 = np.zeros_like(row)
        self.count += 1
        delta = row - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (row - self.mean)

    def variance(self) -> Array:
        """Population variance (ddof=0, matching ``np.std``'s default)."""
        if self.mean is None or self.count == 0:
            raise ValueError("no observations accumulated")
        return self.m2 / self.count

    def std(self, min_std: float = 1e-12) -> Array:
        """Population standard deviation; constant columns get unit scale."""
        std = np.sqrt(self.variance())
        std[std < min_std] = 1.0
        return std

class StandardScaler:
    """Z-score normalizer that tolerates constant columns and empty fits.

    The RBF uncertainty branch assumes z-scored inputs (the paper fits
    ``gamma = 0.1`` under that assumption), and the regression head trains on
    z-scored targets so the loss magnitudes stay comparable across
    applications whose metrics differ by orders of magnitude (req/s vs
    microseconds).
    """

    def __init__(self) -> None:
        self.mean_: Optional[Array] = None
        self.std_: Optional[Array] = None

    @property
    def is_fitted(self) -> bool:
        return self.mean_ is not None

    def fit(self, data: Array) -> "StandardScaler":
        data = np.asarray(data, dtype=np.float64)
        if data.size == 0:
            raise ValueError("cannot fit a scaler on empty data")
        if data.ndim == 1:
            data = data.reshape(-1, 1)
        self.mean_ = data.mean(axis=0)
        std = data.std(axis=0)
        std[std < 1e-12] = 1.0
        self.std_ = std
        return self

    def fit_from_moments(self, moments: RunningMoments) -> "StandardScaler":
        """Adopt the statistics of an externally maintained accumulator."""
        if moments.mean is None or moments.count == 0:
            raise ValueError("cannot fit a scaler from empty moments")
        self.mean_ = moments.mean.copy()
        self.std_ = moments.std()
        return self

    def transform(self, data: Array) -> Array:
        data = np.asarray(data, dtype=np.float64)
        squeeze = data.ndim == 1
        if squeeze:
            data = data.reshape(-1, 1)
        if not self.is_fitted:
            result = data
        else:
            result = (data - self.mean_) / self.std_
        return result.reshape(-1) if squeeze else result

    def fit_transform(self, data: Array) -> Array:
        return self.fit(data).transform(data)

    def inverse_transform(self, data: Array) -> Array:
        data = np.asarray(data, dtype=np.float64)
        squeeze = data.ndim == 1
        if squeeze:
            data = data.reshape(-1, 1)
        if not self.is_fitted:
            result = data
        else:
            result = data * self.std_ + self.mean_
        return result.reshape(-1) if squeeze else result
