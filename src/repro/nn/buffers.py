"""Amortized-doubling array buffers shared by the incremental hot paths.

The DeepTune replay buffer and the exploration history's training columns
both append one row per iteration.  They share this helper so the growth
policy (start at 64 rows, double on overflow, preserve the prefix) lives in
exactly one place.
"""

from __future__ import annotations

import numpy as np

#: initial number of rows allocated on the first growth.
INITIAL_CAPACITY = 64


def ensure_row_capacity(array: np.ndarray, needed: int,
                        minimum: int = INITIAL_CAPACITY) -> np.ndarray:
    """Return *array*, reallocated by doubling if it has fewer than *needed* rows.

    The existing rows are preserved; rows past the old capacity are zeroed
    (callers track their own fill count).  Dtype and trailing dimensions
    are kept.
    """
    capacity = array.shape[0]
    if capacity >= needed:
        return array
    new_capacity = max(minimum, capacity)
    while new_capacity < needed:
        new_capacity *= 2
    grown = np.zeros((new_capacity,) + array.shape[1:], dtype=array.dtype)
    grown[:capacity] = array
    return grown
