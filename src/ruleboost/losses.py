"""Surrogate losses with exact first- and second-order derivatives.

Two convex surrogates over +-1 label vectors and real score vectors:

* label-wise logistic loss: sum_k log(1 + exp(-y_k q_k)).  Decomposes
  over labels, so its Hessian is diagonal.
* example-wise logistic loss: log(1 + sum_k exp(-y_k q_k)).  Couples the
  labels of one example; the Hessian has nonzero off-diagonal entries.

All evaluations use overflow-safe forms: log(1 + e^z) is computed as
z + log(1 + e^-z) for positive z, and the example-wise weights use a
shifted-exponential normalization.

The GradHessStore holds per-example gradients and Hessians at the current
model scores.  For a decomposable loss only the Hessian diagonal is kept
(shape (n, l)); otherwise full matrices are kept (shape (n, l, l)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError
from .rules import Rule, body_mask

LABEL_WISE_LOGISTIC = "label-wise-logistic"
EXAMPLE_WISE_LOGISTIC = "example-wise-logistic"


def expit(x):
    """The logistic function 1 / (1 + exp(-x)), the formula scipy.special.expit uses.

    Below x = -709.78 the exponential overflows to inf and the result is an
    exact 0, without a warning; above it the result keeps its subnormal
    tail (expit(-709) is about 1.2e-308), so the label-wise Hessian
    expit(z) * expit(-z) stays positive wherever scipy's does.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _check_scores(q: np.ndarray):
    if not np.all(np.isfinite(q)):
        raise ValueError("scores must be finite (got NaN or infinity)")


def _as_batch(y, q):
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if y.shape != q.shape:
        raise ValueError(f"label shape {y.shape} does not match score shape {q.shape}")
    _check_scores(q)
    return y, q


class LabelWiseLogisticLoss:
    """Logistic loss applied to each label independently."""

    loss_id = LABEL_WISE_LOGISTIC
    decomposable = True

    def evaluate_batch(self, y, q) -> np.ndarray:
        y, q = _as_batch(y, q)
        return np.logaddexp(0.0, -y * q).sum(axis=1)

    def gradient_batch(self, y, q) -> np.ndarray:
        y, q = _as_batch(y, q)
        return -y * expit(-y * q)

    def hessian_batch(self, y, q) -> np.ndarray:
        """Diagonal entries only, shape (n, l)."""
        y, q = _as_batch(y, q)
        z = -y * q
        # expit(z) * expit(-z) keeps tiny curvatures instead of rounding to 0.
        return expit(z) * expit(-z)

    def evaluate(self, y, q) -> float:
        return float(self.evaluate_batch(y, q)[0])

    def gradient(self, y, q) -> np.ndarray:
        return self.gradient_batch(y, q)[0]

    def hessian(self, y, q) -> np.ndarray:
        """Full (l, l) matrix for one example."""
        return np.diag(self.hessian_batch(y, q)[0])


class ExampleWiseLogisticLoss:
    """Logistic loss over the whole label vector of one example."""

    loss_id = EXAMPLE_WISE_LOGISTIC
    decomposable = False

    def _weights(self, y, q) -> np.ndarray:
        """w_k = exp(-y_k q_k) / (1 + sum_j exp(-y_j q_j)), computed stably."""
        z = -y * q
        shift = np.maximum(z.max(axis=1, keepdims=True), 0.0)
        ez = np.exp(z - shift)
        denom = np.exp(-shift) + ez.sum(axis=1, keepdims=True)
        return ez / denom

    def evaluate_batch(self, y, q) -> np.ndarray:
        y, q = _as_batch(y, q)
        z = -y * q
        shift = np.maximum(z.max(axis=1), 0.0)
        total = np.exp(-shift) + np.exp(z - shift[:, None]).sum(axis=1)
        return shift + np.log(total)

    def gradient_batch(self, y, q) -> np.ndarray:
        y, q = _as_batch(y, q)
        return -y * self._weights(y, q)

    def hessian_batch(self, y, q) -> np.ndarray:
        """Full matrices, shape (n, l, l): diag(w) - (y*w)(y*w)^T."""
        y, q = _as_batch(y, q)
        w = self._weights(y, q)
        u = y * w
        h = -np.einsum("nj,nk->njk", u, u)
        idx = np.arange(y.shape[1])
        h[:, idx, idx] += w
        return h

    def evaluate(self, y, q) -> float:
        return float(self.evaluate_batch(y, q)[0])

    def gradient(self, y, q) -> np.ndarray:
        return self.gradient_batch(y, q)[0]

    def hessian(self, y, q) -> np.ndarray:
        return self.hessian_batch(y, q)[0]


LOSSES = {
    LABEL_WISE_LOGISTIC: LabelWiseLogisticLoss,
    EXAMPLE_WISE_LOGISTIC: ExampleWiseLogisticLoss,
}


def make_loss(loss_id: str):
    try:
        return LOSSES[loss_id]()
    except KeyError:
        raise ConfigError(
            f"unknown loss {loss_id!r}; expected one of {sorted(LOSSES)}"
        ) from None


@dataclass
class GradHessStore:
    """Per-example gradients and Hessians of a loss at the current scores.

    ``hessians`` has shape (n, l) when ``diagonal`` (the loss decomposes)
    and (n, l, l) otherwise.
    """

    gradients: np.ndarray
    hessians: np.ndarray
    diagonal: bool

    @property
    def n_examples(self) -> int:
        return self.gradients.shape[0]

    @property
    def n_labels(self) -> int:
        return self.gradients.shape[1]

    def recompute(self, loss, labels: np.ndarray, scores: np.ndarray, rows=None):
        """Refresh gradients/Hessians of the given rows at the given scores."""
        if rows is None:
            rows = slice(None)
        self.gradients[rows] = loss.gradient_batch(labels[rows], scores[rows])
        self.hessians[rows] = loss.hessian_batch(labels[rows], scores[rows])


def init_store(loss, dataset: Dataset) -> GradHessStore:
    """Store at all-zero scores, the state before any rule is learned."""
    labels = dataset.labels.astype(np.float64)
    zeros = np.zeros_like(labels)
    return GradHessStore(
        gradients=loss.gradient_batch(labels, zeros),
        hessians=loss.hessian_batch(labels, zeros),
        diagonal=loss.decomposable,
    )


def update_store(
    store: GradHessStore,
    loss,
    dataset: Dataset,
    rule: Rule,
    scores: np.ndarray,
) -> tuple[GradHessStore, np.ndarray]:
    """Apply a rule's contribution to the score matrix and refresh derivatives.

    Only rows covered by the rule change; both arrays are updated in place
    and returned for convenience.
    """
    mask = body_mask(dataset, rule.body)
    if mask.any():
        scores[mask] += rule.head.scores
        store.recompute(loss, dataset.labels.astype(np.float64), scores, rows=mask)
    return store, scores
