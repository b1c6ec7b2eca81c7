"""A small, self-contained neural-network library (numpy only).

DeepTune's model is a multitask feedforward network with an unusual
uncertainty branch made of Gaussian radial-basis-function layers, trained
with a combination of categorical cross-entropy, heteroscedastic regression
and Chamfer-distance losses.  None of the scientific Python stack available
offline provides that combination, so this subpackage implements the required
pieces from scratch: dense/ReLU/dropout/RBF layers with manual
backpropagation, the three losses, the Adam optimizer and target scaling.
"""

from repro.nn.layers import Dense, Dropout, Layer, RBFLayer, ReLU
from repro.nn.losses import (
    chamfer_distance,
    heteroscedastic_regression_loss,
    softmax_cross_entropy,
)
from repro.nn.normalize import StandardScaler
from repro.nn.optimizer import Adam

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Dropout",
    "RBFLayer",
    "Adam",
    "StandardScaler",
    "softmax_cross_entropy",
    "heteroscedastic_regression_loss",
    "chamfer_distance",
]
