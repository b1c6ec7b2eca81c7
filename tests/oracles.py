"""Reference implementations the bit-identity tests pin production code to.

These are the straightforward, materializing versions of paths that
production code serves a faster way.  They live with the tests, not in
``src/``, because nothing but the tests (and the benchmarks measuring the
fast paths against them) calls them.
"""

from __future__ import annotations

import os
from statistics import mean
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.campaign_report import CampaignResults
from repro.deeptune.forest import RandomForestRegressor, RegressionTree
from repro.nn.optimizer import Adam
from repro.platform.results import load_history_document


def best_split_reference(tree: RegressionTree, features: np.ndarray,
                         targets: np.ndarray, columns: np.ndarray
                         ) -> Tuple[Optional[int], float, float]:
    """Scalar oracle for ``RegressionTree._best_split``.

    Scores every candidate threshold of every column one at a time, keeping
    the first strictly-greater impurity decrease.
    """
    n = targets.shape[0]
    parent_sse = float(np.sum((targets - targets.mean()) ** 2))
    best = (None, 0.0, 0.0)
    for column in columns:
        values = features[:, column]
        order = np.argsort(values, kind="mergesort")
        sorted_values = values[order]
        sorted_targets = targets[order]
        cumulative = np.cumsum(sorted_targets)
        cumulative_sq = np.cumsum(sorted_targets ** 2)
        total = cumulative[-1]
        total_sq = cumulative_sq[-1]
        for split in range(tree.min_samples_leaf,
                           n - tree.min_samples_leaf + 1):
            if split < 1 or split >= n:
                continue
            if sorted_values[split - 1] == sorted_values[split]:
                continue
            left_sum = cumulative[split - 1]
            left_sq = cumulative_sq[split - 1]
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            left_sse = left_sq - left_sum ** 2 / split
            right_sse = right_sq - right_sum ** 2 / (n - split)
            decrease = parent_sse - (left_sse + right_sse)
            if decrease > best[2]:
                threshold = 0.5 * (sorted_values[split - 1] + sorted_values[split])
                best = (int(column), float(threshold), float(decrease))
    return best


def tree_predict_reference(tree: RegressionTree,
                           features: np.ndarray) -> np.ndarray:
    """Per-row oracle for ``RegressionTree.predict``.

    Each row descends the fitted node arrays on its own, one
    ``row[feature] <= threshold`` test per level.
    """
    if tree._feature is None:
        raise RuntimeError("predict called before fit")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features.reshape(1, -1)
    feature = tree._feature.tolist()
    threshold = tree._threshold.tolist()
    left = tree._left.tolist()
    right = tree._right.tolist()
    value = tree._value.tolist()
    predictions = []
    for row in features:
        node = 0
        while feature[node] >= 0:
            node = (left[node] if row[feature[node]] <= threshold[node]
                    else right[node])
        predictions.append(value[node])
    return np.array(predictions)


def forest_predict_reference(forest: RandomForestRegressor,
                             features: np.ndarray) -> np.ndarray:
    """Per-row oracle for ``RandomForestRegressor.predict``."""
    if not forest.trees:
        raise RuntimeError("predict called before fit")
    features = np.asarray(features, dtype=np.float64)
    predictions = np.zeros(features.shape[0] if features.ndim == 2 else 1)
    for tree in forest.trees:
        predictions = predictions + tree_predict_reference(tree, features)
    return predictions / len(forest.trees)


def history_document(results: CampaignResults, name: str) -> Dict[str, Any]:
    """Experiment *name*'s stored history with every record materialized."""
    return load_history_document(
        os.path.join(results.directory, name + ".json"))


def per_iteration_cost_series_reference(
        results: CampaignResults,
        algorithm: str) -> List[Tuple[float, float]]:
    """The pre-columnar oracle for ``per_iteration_cost_series``.

    Materializes every record dict and aggregates them the way the original
    reader did, so tests can pin the streaming path bit-identical.
    """
    per_experiment: List[List[float]] = []
    for entry in results.completed:
        if entry["spec"].get("algorithm") != algorithm:
            continue
        records = history_document(results, entry["name"]).get("records", [])
        durations = [float(record.get("duration_s", 0.0))
                     for record in sorted(records,
                                          key=lambda r: int(r["index"]))]
        if durations:
            per_experiment.append(durations)
    if not per_experiment:
        return []
    horizon = min(len(durations) for durations in per_experiment)
    return [(float(index),
             mean(durations[index] for durations in per_experiment))
            for index in range(horizon)]


def squared_distances_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``||a_i - b_j||^2`` through the (len(a), len(b), dim) difference tensor."""
    return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)


def adam_step_reference(optimizer: Adam,
                        parameters: List[Tuple[np.ndarray, np.ndarray]]) -> None:
    """One ``Adam.step`` written as the textbook expression.

    Every operation allocates its own temporary; ``Adam.step`` performs the
    same operations in the same order in place, so both must agree bit for
    bit.
    """
    optimizer._ensure_state(parameters)
    optimizer._step += 1
    correction1 = 1.0 - optimizer.beta1 ** optimizer._step
    correction2 = 1.0 - optimizer.beta2 ** optimizer._step
    for index, (param, grad) in enumerate(parameters):
        m = optimizer._first_moment[index]
        v = optimizer._second_moment[index]
        m *= optimizer.beta1
        m += (1.0 - optimizer.beta1) * grad
        v *= optimizer.beta2
        v += (1.0 - optimizer.beta2) * grad ** 2
        m_hat = m / correction1
        v_hat = v / correction2
        param -= optimizer.learning_rate * m_hat / (np.sqrt(v_hat) + optimizer.epsilon)
