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
row by row (``packed_indices``; w = l + l(l+1)/2).  ``derivative_table``
is the one place a loss computes its derivatives: it writes the table
rows of a batch in one pass, and ``gradient_batch`` and ``hessian_batch``
are its two parts (a dense Hessian unpacked by ``unpack_hessians``).
After each rule the store gathers the covered rows' labels and scores and
writes their new table rows into buffers it keeps across rounds, then
scatters those rows into the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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


@lru_cache(maxsize=None)
def packed_indices(n_labels: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of the upper triangle of an l x l matrix, row by row.

    A dense Hessian is packed as ``h[..., rows, columns]``: l(l+1)/2
    entries instead of l^2, which loses nothing because it is symmetric.
    The arrays are cached, so they are read-only.
    """
    indices = np.triu_indices(n_labels)
    for array in indices:
        array.setflags(write=False)
    return indices


def unpack_hessians(packed: np.ndarray, n_labels: int) -> np.ndarray:
    """The (c, l, l) symmetric matrices of (c, l(l+1)/2) packed upper triangles."""
    rows, columns = packed_indices(n_labels)
    full = np.empty((packed.shape[0], n_labels, n_labels))
    full[:, rows, columns] = packed
    full[:, columns, rows] = packed
    return full


class _Loss:
    """What a loss derives from its ``evaluate_batch`` and ``derivative_table``."""

    def _parts(self, y, q) -> tuple[np.ndarray, np.ndarray]:
        """The gradient and Hessian parts of the derivative table of a batch."""
        y, q = _as_batch(y, q)
        table = self.derivative_table(y, q)
        return table[:, : y.shape[1]], table[:, y.shape[1] :]

    def gradient_batch(self, y, q) -> np.ndarray:
        return self._parts(y, q)[0]

    def evaluate(self, y, q) -> float:
        return float(self.evaluate_batch(y, q)[0])

    def gradient(self, y, q) -> np.ndarray:
        return self.gradient_batch(y, q)[0]


class LabelWiseLogisticLoss(_Loss):
    """Logistic loss applied to each label independently."""

    loss_id = LABEL_WISE_LOGISTIC
    decomposable = True

    def evaluate_batch(self, y, q) -> np.ndarray:
        y, q = _as_batch(y, q)
        return np.logaddexp(0.0, -y * q).sum(axis=1)

    def derivative_table(self, y, q, out=None) -> np.ndarray:
        """[gradients | Hessian diagonals] of every row, shape (n, 2l), into ``out`` if given.

        The gradient is -y * expit(-y q); the Hessian diagonal is
        expit(z) * expit(-z) with z = -y q, which keeps tiny curvatures
        instead of rounding them to 0.
        """
        y, q = _as_batch(y, q)
        n_labels = y.shape[1]
        z = -y * q
        positive = expit(z)
        table = np.empty((y.shape[0], 2 * n_labels)) if out is None else out
        np.multiply(-y, positive, out=table[:, :n_labels])
        np.multiply(positive, expit(-z), out=table[:, n_labels:])
        return table

    def hessian_batch(self, y, q) -> np.ndarray:
        """Diagonal entries only, shape (n, l)."""
        return self._parts(y, q)[1]

    def hessian(self, y, q) -> np.ndarray:
        """Full (l, l) matrix for one example."""
        return np.diag(self.hessian_batch(y, q)[0])


class ExampleWiseLogisticLoss(_Loss):
    """Logistic loss over the whole label vector of one example."""

    loss_id = EXAMPLE_WISE_LOGISTIC
    decomposable = False

    def evaluate_batch(self, y, q) -> np.ndarray:
        y, q = _as_batch(y, q)
        z = -y * q
        shift = np.maximum(z.max(axis=1), 0.0)
        total = np.exp(-shift) + np.exp(z - shift[:, None]).sum(axis=1)
        return shift + np.log(total)

    def derivative_table(self, y, q, out=None) -> np.ndarray:
        """[gradients | packed upper-triangle Hessians] of every row, shape (n, l + l(l+1)/2).

        With the weights w_k = exp(-y_k q_k) / (1 + sum_j exp(-y_j q_j)),
        computed with a shifted exponential, and u = y * w, the gradient is
        -u and the Hessian diag(w) - u u': row j of its upper triangle
        holds -u_j u_k for k >= j, plus w_j on the diagonal.  The table is
        written into ``out`` if given.
        """
        y, q = _as_batch(y, q)
        n_labels = y.shape[1]
        z = -y * q
        shift = np.maximum(z.max(axis=1, keepdims=True), 0.0)
        ez = np.exp(z - shift)
        w = ez / (np.exp(-shift) + ez.sum(axis=1, keepdims=True))
        u = y * w
        width = n_labels + n_labels * (n_labels + 1) // 2
        table = np.empty((y.shape[0], width)) if out is None else out
        np.multiply(-y, w, out=table[:, :n_labels])
        start = n_labels
        for j in range(n_labels):
            row = table[:, start : start + n_labels - j]
            # einsum adds each product onto 0.0, so an entry is never -0.0
            # before the negation.
            np.einsum("n,nk->nk", u[:, j], u[:, j:], out=row)
            np.negative(row, out=row)
            row[:, 0] += w[:, j]
            start += n_labels - j
        return table

    def hessian_batch(self, y, q) -> np.ndarray:
        """Full matrices, shape (n, l, l), unpacked from the table."""
        gradients, packed = self._parts(y, q)
        return unpack_hessians(packed, gradients.shape[1])

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
    # (n, width) float buffers that ``recompute`` reuses across rounds, by name.
    _buffers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """Refresh gradients/Hessians of the given rows (all rows if None) at the given scores.

        The rows' labels, scores and new table rows go into the store's
        buffers, so a round allocates no table of its own.
        """
        if rows is None:
            loss.derivative_table(labels, scores, out=self.table)
            return
        y = self._rows("labels", self.n_labels, len(rows))
        y[...] = labels[rows]
        q = np.take(scores, rows, axis=0, out=self._rows("scores", self.n_labels, len(rows)))
        self.table[rows] = loss.derivative_table(
            y, q, out=self._rows("table", self.table.shape[1], len(rows)))

    def _rows(self, name: str, width: int, n_rows: int) -> np.ndarray:
        """The first ``n_rows`` rows of the (n, width) buffer kept under ``name``."""
        buffer = self._buffers.get(name)
        if buffer is None:
            buffer = self._buffers[name] = np.empty((self.n_examples, width))
        return buffer[:n_rows]


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
