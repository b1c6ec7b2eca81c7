"""Loss functions used to train the DeepTune model.

The DTM is trained end-to-end with ``L = L_CCE + L_Reg + L_Cham`` (§3.2):

* ``L_CCE`` — categorical cross-entropy on the crash/no-crash head;
* ``L_Reg`` — the heteroscedastic regression loss of Kendall & Gal, which
  predicts the performance together with its expected error;
* ``L_Cham`` — the Chamfer distance between the RBF centroids and the batch
  of latent inputs, which spreads the centroids over the data distribution.

Every function returns ``(loss, gradients...)`` so the model can run its
manual backward pass.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.layers import squared_distances

Array = np.ndarray


def softmax_cross_entropy(logits: Array, labels: Array,
                          weight: float = 1.0) -> Tuple[float, Array]:
    """Categorical cross-entropy over class logits.

    ``logits`` is (batch, classes); ``labels`` is (batch,) with integer class
    indices.  Returns the mean loss and the gradient with respect to the
    logits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.ndim != 1 or logits.shape[0] != labels.shape[0]:
        raise ValueError("logits must be (n, c) and labels (n,)")
    n = logits.shape[0]
    if n == 0:
        return 0.0, np.zeros_like(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probabilities = exp / exp.sum(axis=1, keepdims=True)
    picked = probabilities[np.arange(n), labels]
    loss = float(-np.mean(np.log(np.clip(picked, 1e-12, None)))) * weight
    grad = probabilities.copy()
    grad[np.arange(n), labels] -= 1.0
    grad *= weight / n
    return loss, grad


def heteroscedastic_regression_loss(
    mean: Array, log_variance: Array, targets: Array,
    mask: Optional[Array] = None, weight: float = 1.0,
) -> Tuple[float, Array, Array]:
    """Regression loss with predicted uncertainty (Kendall & Gal, NeurIPS'17).

    ``loss = 0.5 * exp(-s) * (y - mu)^2 + 0.5 * s`` with ``s = log sigma^2``.
    ``mask`` selects the samples that have a regression target at all
    (crashed configurations have none).  Returns the mean loss and gradients
    with respect to ``mean`` and ``log_variance``.
    """
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    log_variance = np.asarray(log_variance, dtype=np.float64).reshape(-1)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if mask is None:
        mask = ~np.isnan(targets)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    grad_mean = np.zeros_like(mean)
    grad_log_var = np.zeros_like(log_variance)
    count = int(mask.sum())
    if count == 0:
        return 0.0, grad_mean, grad_log_var
    safe_targets = np.where(mask, np.nan_to_num(targets), 0.0)
    residual = safe_targets - mean
    precision = np.exp(-np.clip(log_variance, -10.0, 10.0))
    per_sample = 0.5 * precision * residual ** 2 + 0.5 * log_variance
    loss = float(np.sum(per_sample[mask]) / count) * weight
    scale = weight / count
    grad_mean[mask] = (-precision * residual)[mask] * scale
    grad_log_var[mask] = (0.5 - 0.5 * precision * residual ** 2)[mask] * scale
    return loss, grad_mean, grad_log_var


def chamfer_distance(centroids: Array, points: Array, weight: float = 1.0,
                     sq_dist: Optional[Array] = None) -> Tuple[float, Array]:
    """Symmetric Chamfer distance between the centroid set and a point batch.

    ``d(A, B) = mean_a min_b ||a - b||^2 + mean_b min_a ||a - b||^2``.
    Minimizing it with respect to the centroids pulls every centroid towards
    its nearest data point and makes sure every data point has a nearby
    centroid — i.e. the centroids end up covering the training distribution,
    which is exactly the regularization role the paper assigns to ``L_Cham``.
    *sq_dist*, the (centroids, points) squared-distance matrix, may be passed
    in when the caller already has it.  Returns the loss and its gradient
    with respect to the centroids.
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if centroids.ndim != 2 or points.ndim != 2 or centroids.shape[1] != points.shape[1]:
        raise ValueError("centroids and points must be 2-D with matching feature size")
    if points.shape[0] == 0:
        return 0.0, np.zeros_like(centroids)
    if sq_dist is None:
        sq_dist = squared_distances(centroids, points)

    k = centroids.shape[0]
    n = points.shape[0]

    # Term 1: every centroid to its nearest point.
    nearest_point = np.argmin(sq_dist, axis=1)
    term1 = float(np.mean(sq_dist[np.arange(k), nearest_point]))
    grad = 2.0 * (centroids - points[nearest_point]) / k

    # Term 2: every point to its nearest centroid.  A centroid's gradient
    # sums (c - p) over the points nearest to it: count * c - (sum of p).
    nearest_centroid = np.argmin(sq_dist, axis=0)
    term2 = float(np.mean(sq_dist[nearest_centroid, np.arange(n)]))
    assigned = (nearest_centroid == np.arange(k)[:, None]).astype(np.float64)
    grad += 2.0 * (assigned.sum(axis=1)[:, None] * centroids - assigned @ points) / n

    return (term1 + term2) * weight, grad * weight
