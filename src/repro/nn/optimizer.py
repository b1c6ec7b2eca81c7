"""Optimizers for the numpy neural-network stack."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

Array = np.ndarray


class Adam:
    """Adam optimizer operating in place on (parameter, gradient) pairs."""

    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8) -> None:
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step = 0
        self._first_moment: List[Array] = []
        self._second_moment: List[Array] = []

    def _ensure_state(self, parameters: Sequence[Tuple[Array, Array]]) -> None:
        if len(self._first_moment) != len(parameters):
            self._first_moment = [np.zeros_like(param) for param, _ in parameters]
            self._second_moment = [np.zeros_like(param) for param, _ in parameters]

    def step(self, parameters: Sequence[Tuple[Array, Array]]) -> None:
        """Apply one Adam update to every (parameter, gradient) pair.

        Computes ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g^2`` and
        ``param -= lr * (m / c1) / (sqrt(v / c2) + eps)`` in that operation
        order, in place through two scratch arrays per parameter.
        """
        self._ensure_state(parameters)
        self._step += 1
        correction1 = 1.0 - self.beta1 ** self._step
        correction2 = 1.0 - self.beta2 ** self._step
        for index, (param, grad) in enumerate(parameters):
            m = self._first_moment[index]
            v = self._second_moment[index]
            step = np.multiply(grad, 1.0 - self.beta1)
            m *= self.beta1
            m += step
            np.square(grad, out=step)
            step *= 1.0 - self.beta2
            v *= self.beta2
            v += step
            np.divide(m, correction1, out=step)
            step *= self.learning_rate
            denominator = np.divide(v, correction2)
            np.sqrt(denominator, out=denominator)
            denominator += self.epsilon
            step /= denominator
            param -= step

    def export_state(self) -> dict:
        """The step count and copies of the moment estimates."""
        return {"step": self._step,
                "first_moment": [m.copy() for m in self._first_moment],
                "second_moment": [v.copy() for v in self._second_moment]}

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        self._step = int(state["step"])
        self._first_moment = [np.array(m) for m in state["first_moment"]]
        self._second_moment = [np.array(v) for v in state["second_moment"]]

    def reset(self) -> None:
        """Forget all moment estimates (used when a model is re-initialized)."""
        self._step = 0
        self._first_moment = []
        self._second_moment = []
