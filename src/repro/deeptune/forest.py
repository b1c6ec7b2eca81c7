"""Random-forest regression and feature importance (numpy only).

The cross-similarity analysis of the paper (§3.3, Figure 5) uses a
random-forest feature-importance algorithm (Breiman 2001) to score how much
each configuration option influences an application's performance.  scikit-
learn is not available offline, so this module implements the required subset
from scratch: CART-style regression trees grown on bootstrap samples with
random feature subsets per split, mean-decrease-in-impurity importances, and
out-of-bag error estimation.

Fitting and prediction both run on flat arrays: ``_best_split`` scores every
candidate threshold of a column with one vectorized pass over the cumulative
sums, trees grow straight into parallel preorder node arrays, and
``predict`` traverses all rows at once (iterative masked descent) instead
of walking one row at a time.  Both compute the same IEEE-754 float64
operations in the same order per element as the scalar split scan and the
per-row descent, so results are identical to the last bit; those scalar
forms live with the tests (``tests/oracles.py``), which pin the
equivalence on randomized fixtures.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

Array = np.ndarray


class RegressionTree:
    """A CART regression tree with random feature subsets per split."""

    def __init__(self, max_depth: int = 6, min_samples_leaf: int = 3,
                 max_features: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng or np.random.default_rng(0)
        self._n_features = 0
        self.feature_importances_: Optional[Array] = None
        # preorder node arrays (built by fit): feature is -1 at leaves,
        # left/right hold child node indices.
        self._feature: Optional[Array] = None
        self._threshold: Optional[Array] = None
        self._left: Optional[Array] = None
        self._right: Optional[Array] = None
        self._value: Optional[Array] = None

    # -- fitting ---------------------------------------------------------------
    def fit(self, features: Array, targets: Array) -> "RegressionTree":
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != targets.shape[0]:
            raise ValueError("features must be (n, d) aligned with targets (n,)")
        self._n_features = features.shape[1]
        self.feature_importances_ = np.zeros(self._n_features)
        nodes: Tuple[list, ...] = ([], [], [], [], [])
        self._grow(features, targets, 0, nodes)
        total = self.feature_importances_.sum()
        if total > 0:
            self.feature_importances_ /= total
        feature, threshold, left, right, value = nodes
        self._feature = np.asarray(feature, dtype=np.int64)
        self._threshold = np.asarray(threshold, dtype=np.float64)
        self._left = np.asarray(left, dtype=np.int64)
        self._right = np.asarray(right, dtype=np.int64)
        self._value = np.asarray(value, dtype=np.float64)
        return self

    def _best_split(self, features: Array, targets: Array,
                    columns: Array) -> Tuple[Optional[int], float, float]:
        """Return (feature, threshold, impurity decrease) of the best split.

        All candidate thresholds of a column are scored in one array pass
        over the cumulative sums.  Every elementwise operation is the same
        float64 arithmetic a scalar scan over the thresholds performs, and
        ``np.argmax``'s first-occurrence semantics reproduce its
        strictly-greater ascending scan, so the chosen split is
        bit-identical.
        """
        n = targets.shape[0]
        parent_sse = float(np.sum((targets - targets.mean()) ** 2))
        best = (None, 0.0, 0.0)
        lo = max(self.min_samples_leaf, 1)
        hi = min(n - self.min_samples_leaf, n - 1)
        if hi < lo:
            return best
        splits = np.arange(lo, hi + 1)
        for column in columns:
            values = features[:, column]
            order = np.argsort(values, kind="mergesort")
            sorted_values = values[order]
            sorted_targets = targets[order]
            # Cumulative sums let every candidate threshold be scored in O(1).
            cumulative = np.cumsum(sorted_targets)
            cumulative_sq = np.cumsum(sorted_targets ** 2)
            total = cumulative[-1]
            total_sq = cumulative_sq[-1]
            left_sum = cumulative[splits - 1]
            left_sq = cumulative_sq[splits - 1]
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            left_sse = left_sq - left_sum ** 2 / splits
            right_sse = right_sq - right_sum ** 2 / (n - splits)
            decrease = parent_sse - (left_sse + right_sse)
            # splits between equal values are skipped; NaN scores map to
            # -inf so they are never selected (NaN > best is False in the
            # scalar scan).
            usable = sorted_values[splits - 1] != sorted_values[splits]
            usable &= ~np.isnan(decrease)
            if not usable.any():
                continue
            decrease = np.where(usable, decrease, -np.inf)
            position = int(np.argmax(decrease))
            column_best = float(decrease[position])
            if column_best > best[2]:
                split = int(splits[position])
                threshold = 0.5 * (sorted_values[split - 1] + sorted_values[split])
                best = (int(column), float(threshold), column_best)
        return best

    def _grow(self, features: Array, targets: Array, depth: int,
              nodes: Tuple[list, ...]) -> int:
        """Append the subtree over *targets* to *nodes* in preorder.

        *nodes* holds the (feature, threshold, left, right, value) lists
        ``fit`` turns into the flat node arrays; returns the subtree root's
        index.  Recursing left before right fixes both the node order and
        the order of the per-split RNG draws.
        """
        feature, threshold, left, right, value = nodes
        index = len(value)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(targets.mean()))
        if (depth >= self.max_depth or targets.shape[0] < 2 * self.min_samples_leaf
                or float(np.var(targets)) < 1e-12):
            return index
        n_candidates = self.max_features or self._n_features
        n_candidates = min(n_candidates, self._n_features)
        columns = self.rng.choice(self._n_features, size=n_candidates, replace=False)
        split_feature, split_threshold, decrease = self._best_split(
            features, targets, columns)
        if split_feature is None or decrease <= 0.0:
            return index
        mask = features[:, split_feature] <= split_threshold
        feature[index] = split_feature
        threshold[index] = split_threshold
        self.feature_importances_[split_feature] += decrease
        left[index] = self._grow(features[mask], targets[mask], depth + 1, nodes)
        right[index] = self._grow(features[~mask], targets[~mask], depth + 1,
                                  nodes)
        return index

    # -- prediction ----------------------------------------------------------------
    def predict(self, features: Array) -> Array:
        """Batch prediction via iterative vectorized traversal.

        All rows descend the node arrays together; rows parked at leaves
        drop out of the active set each level.  The comparison per level is
        the identical ``row[feature] <= threshold`` float64 test a per-row
        descent performs, so outputs are bit-identical to it.
        """
        if self._feature is None:
            raise RuntimeError("predict called before fit")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        node = np.zeros(features.shape[0], dtype=np.int64)
        while True:
            split_feature = self._feature[node]
            active = np.nonzero(split_feature >= 0)[0]
            if active.size == 0:
                break
            current = node[active]
            go_left = (features[active, split_feature[active]]
                       <= self._threshold[current])
            node[active] = np.where(go_left, self._left[current],
                                    self._right[current])
        return self._value[node]


class RandomForestRegressor:
    """Bootstrap-aggregated regression trees with impurity importances."""

    def __init__(self, n_trees: int = 30, max_depth: int = 6,
                 min_samples_leaf: int = 3, feature_fraction: float = 0.4,
                 seed: int = 0) -> None:
        if n_trees < 1:
            raise ValueError("need at least one tree")
        if not 0.0 < feature_fraction <= 1.0:
            raise ValueError("feature_fraction must be in (0, 1]")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.feature_fraction = feature_fraction
        self.seed = seed
        self.trees: List[RegressionTree] = []
        self.feature_importances_: Optional[Array] = None
        self.oob_score_: Optional[float] = None

    def fit(self, features: Array, targets: Array) -> "RandomForestRegressor":
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        mask = ~np.isnan(targets)
        features = features[mask]
        targets = targets[mask]
        if features.shape[0] < 2:
            raise ValueError("need at least two samples to fit a forest")
        rng = np.random.default_rng(self.seed)
        n_samples, n_features = features.shape
        max_features = max(1, int(round(self.feature_fraction * n_features)))

        self.trees = []
        importances = np.zeros(n_features)
        oob_sum = np.zeros(n_samples)
        oob_count = np.zeros(n_samples)
        for _ in range(self.n_trees):
            indices = rng.integers(0, n_samples, size=n_samples)
            tree = RegressionTree(max_depth=self.max_depth,
                                  min_samples_leaf=self.min_samples_leaf,
                                  max_features=max_features, rng=rng)
            tree.fit(features[indices], targets[indices])
            self.trees.append(tree)
            importances += tree.feature_importances_
            out_of_bag = np.setdiff1d(np.arange(n_samples), indices, assume_unique=False)
            if out_of_bag.size:
                oob_sum[out_of_bag] += tree.predict(features[out_of_bag])
                oob_count[out_of_bag] += 1
        self.feature_importances_ = importances / self.n_trees
        total = self.feature_importances_.sum()
        if total > 0:
            self.feature_importances_ = self.feature_importances_ / total
        covered = oob_count > 0
        if covered.any() and float(np.var(targets[covered])) > 1e-12:
            predictions = oob_sum[covered] / oob_count[covered]
            residual = float(np.mean((predictions - targets[covered]) ** 2))
            self.oob_score_ = 1.0 - residual / float(np.var(targets[covered]))
        return self

    def predict(self, features: Array) -> Array:
        if not self.trees:
            raise RuntimeError("predict called before fit")
        features = np.asarray(features, dtype=np.float64)
        predictions = np.zeros(features.shape[0] if features.ndim == 2 else 1)
        for tree in self.trees:
            predictions = predictions + tree.predict(features)
        return predictions / len(self.trees)


def forest_parameter_importance(encoder, features: Array, targets: Array,
                                n_trees: int = 30, seed: int = 0) -> dict:
    """Per-parameter importance using the random forest (Figure 5 variant).

    Equivalent in role to :func:`repro.deeptune.importance.parameter_importance`
    but using the Breiman forest the paper cites; one-hot parameters take the
    maximum importance over their columns.
    """
    forest = RandomForestRegressor(n_trees=n_trees, seed=seed)
    forest.fit(features, targets)
    importances = forest.feature_importances_
    result = {}
    for parameter in encoder.space.parameters():
        start, stop = encoder.slice_for(parameter.name)
        result[parameter.name] = float(np.max(importances[start:stop])) \
            if stop > start else 0.0
    return result
