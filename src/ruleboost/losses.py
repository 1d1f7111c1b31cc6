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
model scores in one C-contiguous (n, w) table, row i holding example i's
l gradients and then its Hessian: for a decomposable loss the l diagonal
entries (w = 2l), otherwise the l(l+1)/2 entries of the upper triangle,
row by row (``heads.packed_indices``; w = l + l(l+1)/2).  Each loss
writes the table rows of a batch in one pass (``derivative_table``) with
the expressions ``gradient_batch`` and ``hessian_batch`` use, so the
entries are theirs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError
from .rules import Rule, add_head, body_mask

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

    def derivative_table(self, y, q) -> np.ndarray:
        """[gradients | Hessian diagonals] of every row, shape (n, 2l)."""
        y, q = _as_batch(y, q)
        n_labels = y.shape[1]
        z = -y * q
        positive = expit(z)
        table = np.empty((y.shape[0], 2 * n_labels))
        np.multiply(-y, positive, out=table[:, :n_labels])
        np.multiply(positive, expit(-z), out=table[:, n_labels:])
        return table

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

    def derivative_table(self, y, q) -> np.ndarray:
        """[gradients | packed upper-triangle Hessians] of every row, shape (n, l + l(l+1)/2).

        One weight computation serves both parts.  Row j of the upper
        triangle holds -u_j u_k for k >= j, plus w_j on the diagonal, as in
        ``hessian_batch``.
        """
        y, q = _as_batch(y, q)
        n_labels = y.shape[1]
        w = self._weights(y, q)
        u = y * w
        table = np.empty((y.shape[0], n_labels + n_labels * (n_labels + 1) // 2))
        np.multiply(-y, w, out=table[:, :n_labels])
        start = n_labels
        for j in range(n_labels):
            row = table[:, start : start + n_labels - j]
            # einsum, as in hessian_batch, adds each product onto 0.0, so
            # an entry is never -0.0 before the negation.
            np.einsum("n,nk->nk", u[:, j], u[:, j:], out=row)
            np.negative(row, out=row)
            row[:, 0] += w[:, j]
            start += n_labels - j
        return table

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
    """Per-example gradients and Hessians of a loss at the current scores, in one table.

    ``table`` is C-contiguous (n, w): the l gradients of each example,
    then its Hessian diagonal when ``diagonal`` (the loss decomposes,
    w = 2l) or its packed upper triangle otherwise (w = l + l(l+1)/2).
    ``gradients`` and ``hessians`` are views of the two parts.
    """

    table: np.ndarray
    n_labels: int
    diagonal: bool

    @property
    def n_examples(self) -> int:
        return self.table.shape[0]

    @property
    def gradients(self) -> np.ndarray:
        return self.table[:, : self.n_labels]

    @property
    def hessians(self) -> np.ndarray:
        return self.table[:, self.n_labels :]

    def recompute(self, loss, labels: np.ndarray, scores: np.ndarray, rows=None):
        """Refresh gradients/Hessians of the given rows at the given scores."""
        if rows is None:
            rows = slice(None)
        labels = np.asarray(labels[rows], dtype=np.float64)
        self.table[rows] = loss.derivative_table(labels, scores[rows])


def init_store(loss, dataset: Dataset) -> GradHessStore:
    """Store at all-zero scores, the state before any rule is learned."""
    labels = dataset.labels.astype(np.float64)
    return GradHessStore(loss.derivative_table(labels, np.zeros_like(labels)),
                         dataset.n_labels, loss.decomposable)


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
    rows = add_head(scores, body_mask(dataset, rule.body), rule.head.scores)
    if rows.size:
        store.recompute(loss, dataset.labels, scores, rows=rows)
    return store, scores
