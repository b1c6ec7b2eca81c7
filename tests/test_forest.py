"""Tests for the from-scratch random-forest regressor and its importances."""

import hashlib

import numpy as np
import pytest

from repro.config.encoding import ConfigEncoder
from repro.deeptune.forest import (
    RandomForestRegressor,
    RegressionTree,
    forest_parameter_importance,
)
from tests.oracles import (
    best_split_reference,
    forest_predict_reference,
    tree_predict_reference,
)


def make_dataset(n=300, d=8, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = 10.0 * X[:, 2] + 4.0 * (X[:, 5] > 0.5) + rng.normal(0, 0.3, n)
    return X, y


class TestRegressionTree:
    def test_fits_step_function(self):
        rng = np.random.default_rng(1)
        X = rng.random((200, 3))
        y = np.where(X[:, 1] > 0.5, 10.0, 0.0)
        tree = RegressionTree(max_depth=3, rng=rng).fit(X, y)
        predictions = tree.predict(X)
        assert np.mean((predictions - y) ** 2) < 1.0
        assert int(np.argmax(tree.feature_importances_)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)
        with pytest.raises(ValueError):
            RegressionTree(min_samples_leaf=0)
        tree = RegressionTree()
        with pytest.raises(RuntimeError):
            tree.predict(np.ones((1, 2)))
        with pytest.raises(ValueError):
            tree.fit(np.ones((3, 2)), np.ones(4))

    def test_constant_target_yields_leaf(self):
        X = np.random.default_rng(0).random((50, 4))
        y = np.full(50, 3.0)
        tree = RegressionTree().fit(X, y)
        assert np.allclose(tree.predict(X), 3.0)


class TestRandomForest:
    def test_predictions_track_target(self):
        X, y = make_dataset()
        forest = RandomForestRegressor(n_trees=20, seed=1).fit(X, y)
        predictions = forest.predict(X)
        correlation = np.corrcoef(predictions, y)[0, 1]
        assert correlation > 0.8

    def test_importances_identify_relevant_features(self):
        X, y = make_dataset()
        forest = RandomForestRegressor(n_trees=25, seed=2).fit(X, y)
        importances = forest.feature_importances_
        assert importances.shape == (8,)
        assert importances.sum() == pytest.approx(1.0, abs=1e-6)
        top_two = set(np.argsort(importances)[-2:])
        assert top_two == {2, 5}

    def test_oob_score_positive_for_learnable_problem(self):
        X, y = make_dataset()
        forest = RandomForestRegressor(n_trees=25, seed=3).fit(X, y)
        assert forest.oob_score_ is not None
        assert forest.oob_score_ > 0.5

    def test_nan_targets_dropped(self):
        X, y = make_dataset(n=100)
        y[::7] = np.nan
        forest = RandomForestRegressor(n_trees=10, seed=4).fit(X, y)
        assert forest.predict(X[:5]).shape == (5,)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_trees=0)
        with pytest.raises(ValueError):
            RandomForestRegressor(feature_fraction=0.0)
        with pytest.raises(ValueError):
            RandomForestRegressor().fit(np.ones((1, 2)), np.ones(1))
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.ones((1, 2)))

    def test_fitted_output_is_pinned(self):
        """Importances, OOB score and predictions of a fixed fit, bit for bit.

        A change to how trees are grown must keep the node order and the
        RNG draw order, or these digests move.
        """
        rng = np.random.default_rng(2024)
        X = rng.random((240, 7))
        X[:, 3] = np.round(X[:, 3] * 4) / 4.0
        y = (6.0 * X[:, 0] - 3.0 * X[:, 3] ** 2 + np.sin(5.0 * X[:, 4])
             + rng.normal(0, 0.2, 240))
        forest = RandomForestRegressor(n_trees=12, max_depth=6,
                                       min_samples_leaf=2,
                                       feature_fraction=0.5, seed=31).fit(X, y)
        queries = rng.random((100, 7))

        def digest(values):
            return hashlib.sha256(np.ascontiguousarray(
                values, dtype=np.float64).tobytes()).hexdigest()

        assert digest(forest.feature_importances_) == (
            "f6a08013513ef4d86ca8b0e33f18d3d761c27e7e31bfc6ec53a7ff4fe37a6a20")
        assert digest([forest.oob_score_]) == (
            "2206f993c4edfe2f0fd448e3eb8666ff01b8f1341b64517bbd812b3ada1a2e3e")
        assert digest(forest.predict(queries)) == (
            "cef394b480b091d99972fc31f897e511d818532ced5604346e9a1a3dae387dec")


class TestVectorizedEquivalence:
    """The vectorized hot paths must be bit-identical to their scalar oracles.

    ``_best_split`` and ``predict`` are vectorized for the million-trial
    scoring tier; the scalar forms they replace live in ``tests/oracles.py``.
    These fixtures sweep randomized shapes, constant targets, and
    duplicate-value columns (the tie-breaking traps) and require exact
    float64 equality — not approx — because a checkpoint-resumed run must
    reproduce the uninterrupted one bit for bit.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_best_split_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        d = int(rng.integers(2, 9))
        X = rng.random((n, d))
        # duplicate-heavy columns: quantized values force equal-value skips
        X[:, 0] = np.round(X[:, 0] * 3) / 3.0
        if d > 2:
            X[:, 1] = X[:, 1] > 0.5
        y = rng.normal(0, 1, n)
        tree = RegressionTree(min_samples_leaf=int(rng.integers(1, 4)))
        columns = np.arange(d)
        assert (tree._best_split(X, y, columns)
                == best_split_reference(tree, X, y, columns))

    def test_best_split_constant_target_and_degenerate_shapes(self):
        rng = np.random.default_rng(9)
        X = rng.random((20, 3))
        constant = np.full(20, 2.5)
        tree = RegressionTree(min_samples_leaf=2)
        columns = np.arange(3)
        assert (tree._best_split(X, constant, columns)
                == best_split_reference(tree, X, constant, columns))
        # too few samples for any valid split point
        tiny = rng.random((3, 3))
        tiny_targets = rng.normal(0, 1, 3)
        tree_big_leaf = RegressionTree(min_samples_leaf=5)
        assert (tree_big_leaf._best_split(tiny, tiny_targets, columns)
                == (None, 0.0, 0.0))
        # a single-valued column can never split
        flat = np.ones((10, 1))
        flat_targets = rng.normal(0, 1, 10)
        assert (tree._best_split(flat, flat_targets, np.array([0]))
                == best_split_reference(tree, flat, flat_targets,
                                        np.array([0])))

    @pytest.mark.parametrize("seed", range(4))
    def test_tree_predict_matches_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(20, 120))
        d = int(rng.integers(2, 7))
        X = rng.random((n, d))
        X[:, -1] = np.round(X[:, -1] * 4) / 4.0
        y = 5.0 * X[:, 0] + rng.normal(0, 0.5, n)
        tree = RegressionTree(max_depth=int(rng.integers(2, 7)),
                              min_samples_leaf=int(rng.integers(1, 4)),
                              rng=rng).fit(X, y)
        queries = rng.random((64, d))
        exact = tree_predict_reference(tree, queries)
        assert np.array_equal(tree.predict(queries), exact)
        # single-row and 1-D query shapes agree too
        assert np.array_equal(tree.predict(queries[0]),
                              tree_predict_reference(tree, queries[0]))

    def test_tree_predict_constant_target(self):
        X = np.random.default_rng(3).random((30, 4))
        tree = RegressionTree().fit(X, np.full(30, 7.0))
        assert np.array_equal(tree.predict(X), tree_predict_reference(tree, X))

    @pytest.mark.parametrize("seed", range(3))
    def test_forest_predict_matches_reference(self, seed):
        X, y = make_dataset(n=150, seed=seed)
        forest = RandomForestRegressor(n_trees=12, seed=seed).fit(X, y)
        queries = np.random.default_rng(seed + 50).random((80, X.shape[1]))
        assert np.array_equal(forest.predict(queries),
                              forest_predict_reference(forest, queries))


class TestForestParameterImportance:
    def test_matches_known_sensitive_parameter(self, small_space, rng):
        encoder = ConfigEncoder(small_space)
        configs = [small_space.sample_configuration(rng) for _ in range(250)]
        X = encoder.encode_batch(configs)
        start, _ = encoder.slice_for("net.core.somaxconn")
        y = 100.0 * X[:, start] + np.random.default_rng(0).normal(0, 1.0, X.shape[0])
        importances = forest_parameter_importance(encoder, X, y, n_trees=15, seed=5)
        best = max(importances, key=importances.get)
        assert best == "net.core.somaxconn"
