"""Vote layer: a single trainable linear map from concatenated per-model
score vectors to a 3-class distribution (multinomial logistic regression).

Training is full-batch gradient descent on mean cross-entropy plus an L2
penalty, from zero initialization.  The objective is convex, so the result
is deterministic.  Nothing reads TrainConfig.rng_seed; it stays only because
the saved layer file echoes the config.

Training and prediction share one softmax.  Like the rest of an epoch, it
reduces over the 3-wide class axis column by column, not with numpy's axis
reductions, which loop once per row; it reproduces their floats bit for
bit.  Prediction runs it on one statement's logit row, one matrix-vector
product, not a batch: a batched product takes another BLAS path, its
logits differ in the last bits, and a near tie could flip.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, asdict

import numpy as np

from .classify import CLASS_ORDER
from .corpus import json_field, located, write_json

N_CLASSES = 3


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 200
    rng_seed: int = 0
    l2: float = 1e-4

    def __post_init__(self):
        if not (0 < self.learning_rate < np.inf):
            raise ValueError("learning_rate must be finite and > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (0 <= self.l2 < np.inf):
            raise ValueError("l2 must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class VoteLayer:
    model_names: tuple
    weights: np.ndarray  # (3, 3*M)
    bias: np.ndarray  # (3,)

    def __post_init__(self):
        m = len(self.model_names)
        if m < 1:
            raise ValueError("at least one model required")
        if len(set(self.model_names)) < m:
            raise ValueError(f"model names repeat: {reprlib.repr(list(self.model_names))}")
        if self.weights.shape != (N_CLASSES, N_CLASSES * m):
            raise ValueError(
                f"weights must be {N_CLASSES}x{N_CLASSES * m}, got {self.weights.shape}")
        if self.bias.shape != (N_CLASSES,):
            raise ValueError(f"bias must have shape (3,), got {self.bias.shape}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("non-finite layer parameters")

    def save(self, path, config):
        obj = {
            "model_names": list(self.model_names),
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
            "config": asdict(config),
        }
        write_json(obj, path)

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh, located(path):
            obj = json.load(fh)
            return cls(tuple(json_field(obj, "model_names", list, str)),
                       np.asarray(obj["weights"], dtype=float),
                       np.asarray(obj["bias"], dtype=float))


def assemble_features(scores, model_names):
    """Concatenate one statement's score triples, ``{model: triple}``, in
    model_names order."""
    try:
        return np.asarray([s for name in model_names for s in scores[name]], dtype=float)
    except KeyError as exc:
        raise ValueError(f"missing scores from model {exc.args[0]!r}") from None


def _softmax(logits):
    """Row-wise softmax of an (n, 3) logit matrix, column by column: max is
    exact, and the sum adds left to right as a last-axis sum does."""
    e = np.exp(logits - np.maximum(np.maximum(logits[:, 0], logits[:, 1]),
                                   logits[:, 2])[:, None])
    return e / (e[:, 0] + e[:, 1] + e[:, 2])[:, None]


def forward(layer, features):
    """Class probability 3-vector: softmax(W @ x + b)."""
    features = np.asarray(features, dtype=float)
    if features.shape != (layer.weights.shape[1],):
        raise ValueError(
            f"feature length {features.shape} does not match layer "
            f"input size {layer.weights.shape[1]}")
    return _softmax((layer.weights @ features + layer.bias)[None])[0]


def predict(layer, features):
    """Argmax label; exact ties resolve in class order E > R > U."""
    probs = forward(layer, features)
    return CLASS_ORDER[int(np.argmax(probs))]


def _design(examples):
    """Feature matrix and, for each example, the flat index of its gold
    class in an (n, 3) matrix of CLASS_ORDER columns, for a list of (feature
    vector, gold Label)."""
    x = np.asarray([f for f, _ in examples], dtype=float)
    gold = np.asarray([CLASS_ORDER.index(label) for _, label in examples], dtype=np.intp)
    return x, np.arange(len(gold)) * N_CLASSES + gold


def _loss_and_grads(weights, bias, x, gold_flat, l2):
    # Each step gives the floats of the one-hot numpy reference the tests
    # hold: the gold probability is taken, not summed with zeros (a NaN fills
    # its whole softmax row, so the loss is NaN either way); 1.0 is subtracted
    # at the gold entries only, as p - 0.0 is p; cumsum adds delta's rows in
    # order, as delta.sum(axis=0) does, where a 1-D .sum() would add pairwise.
    n = x.shape[0]
    probs = _softmax(x @ weights.T + bias)
    ce = -np.mean(np.log(np.clip(probs.take(gold_flat), 1e-300, None)))
    loss = ce + l2 * float((weights ** 2).sum())
    probs.ravel()[gold_flat] -= 1.0  # a view of the fresh C-contiguous matrix
    delta = probs / n
    grad_w = delta.T @ x + 2 * l2 * weights
    grad_b = np.cumsum(delta.T, axis=1)[:, -1]
    return loss, grad_w, grad_b


def train(examples, config=TrainConfig(), model_names=("model",)):
    """Fit the vote layer by full-batch gradient descent.

    ``examples`` is a list of (feature vector, gold Label).  Returns
    (VoteLayer, loss trace), the trace holding one pre-update loss per epoch.
    """
    if not examples:
        raise ValueError("no training examples")
    x, gold_flat = _design(examples)
    if x.ndim != 2 or x.shape[1] != N_CLASSES * len(model_names):
        raise ValueError(
            f"feature matrix shape {x.shape} inconsistent with "
            f"{len(model_names)} models")

    weights = np.zeros((N_CLASSES, x.shape[1]))
    bias = np.zeros(N_CLASSES)
    trace = []
    for epoch in range(config.epochs):
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            loss, grad_w, grad_b = _loss_and_grads(weights, bias, x, gold_flat, config.l2)
        if not np.isfinite(loss):
            raise ValueError(f"non-finite loss at epoch {epoch}")
        trace.append(loss)
        weights = weights - config.learning_rate * grad_w
        bias = bias - config.learning_rate * grad_b
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):  # the last update
        raise ValueError(f"non-finite layer parameters after epoch {epoch}")
    return VoteLayer(tuple(model_names), weights, bias), trace


def majority_vote(scores, layer=None):
    """No-training ensemble mode over one statement's ``{model: triple}``:
    per-model argmax, then plurality.

    A plurality tie falls back to the trained layer's forward pass when one
    is supplied, otherwise to class order E > R > U.
    """
    counts = {label: 0 for label in CLASS_ORDER}
    for triple in scores.values():
        counts[CLASS_ORDER[int(np.argmax(triple))]] += 1
    best = max(counts.values())
    winners = [label for label in CLASS_ORDER if counts[label] == best]
    if len(winners) > 1 and layer is not None:
        feats = assemble_features(scores, layer.model_names)
        return predict(layer, feats)
    return winners[0]
