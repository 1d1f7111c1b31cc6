"""Loss-minimizing head computation from aggregated derivative statistics.

For a candidate body, the gradients and Hessians of the covered examples
are summed into one vector g and one symmetric matrix H.  The optimal
full head solves (H + diag(lambda)) p = -g; with a diagonal H this is the
per-label closed form p_k = -g_k / (h_kk + lambda).  Single-label heads
use the diagonal closed form per candidate label and keep the label whose
quadratic objective is smallest, which is valid for non-decomposable
losses too because all other head entries are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import SolverError
from .losses import GradHessStore
from .rules import Body, Head, body_mask

HEAD_SINGLE = "single"
HEAD_MULTI = "multi"


@dataclass(frozen=True)
class AggregatedStats:
    """Summed gradients/Hessians over a set of covered examples.

    ``hessian`` is an (l,) diagonal when ``diagonal`` is set, else (l, l).
    ``count`` is the number of contributing examples (with multiplicity).
    """

    gradient: np.ndarray
    hessian: np.ndarray
    diagonal: bool
    count: int

    @property
    def n_labels(self) -> int:
        return self.gradient.shape[0]

    def hessian_diag(self) -> np.ndarray:
        if self.diagonal:
            return self.hessian
        return np.diagonal(self.hessian)

    def dense_hessian(self) -> np.ndarray:
        if self.diagonal:
            return np.diag(self.hessian)
        return self.hessian


def stats_for_rows(store: GradHessStore, rows) -> AggregatedStats:
    """Sum the store over an index array (repeated indices count repeatedly)."""
    rows = np.asarray(rows)
    return AggregatedStats(
        gradient=store.gradients[rows].sum(axis=0),
        hessian=store.hessians[rows].sum(axis=0),
        diagonal=store.diagonal,
        count=int(rows.shape[0]),
    )


def aggregate_stats(
    store: GradHessStore,
    body: Body,
    dataset: Dataset,
    indices: np.ndarray | None = None,
) -> AggregatedStats:
    """Sum gradients/Hessians of the examples covered by a body.

    ``indices`` restricts (with multiplicity) to a sample of the dataset;
    by default all examples are considered once.
    """
    mask = body_mask(dataset, body)
    if indices is None:
        rows = np.nonzero(mask)[0]
    else:
        indices = np.asarray(indices)
        rows = indices[mask[indices]]
    if rows.size == 0:
        n = store.n_labels
        hess = np.zeros(n) if store.diagonal else np.zeros((n, n))
        return AggregatedStats(np.zeros(n), hess, store.diagonal, 0)
    return stats_for_rows(store, rows)


def solve_full_head(stats: AggregatedStats, l2_weight: float) -> Head:
    """Head over all labels minimizing g.p + p'Hp/2 + l2 |p|^2 / 2.

    Diagonal statistics use the per-label closed form; dense statistics
    are solved by Cholesky factorization, which rejects systems that are
    not positive definite (e.g. l2_weight = 0 with a rank-deficient H).
    """
    g = stats.gradient
    if stats.diagonal:
        denom = stats.hessian + l2_weight
        if np.any(denom <= 0.0):
            raise SolverError(
                "singular diagonal system: some h_kk + lambda <= 0 "
                f"(min diagonal {denom.min():.3e}); increase the L2 weight"
            )
        return Head(-g / denom, None)
    # Imported here so that loading a model and predicting never import scipy.
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    system = stats.hessian + l2_weight * np.eye(stats.n_labels)
    try:
        factor = cho_factor(system, lower=True)
    except LinAlgError:
        raise SolverError(
            "head system is not positive definite "
            f"(condition number {np.linalg.cond(system):.3e}); "
            "increase the L2 weight"
        ) from None
    return Head(cho_solve(factor, -g), None)


def solve_single_label_head(
    stats: AggregatedStats,
    l2_weight: float,
    fixed_label: int | None = None,
) -> Head:
    """Best single-label head using only Hessian diagonal entries.

    Candidate labels are all of them, or just ``fixed_label`` once a rule
    is committed to a label during refinement.  Ties go to the lowest
    label index.
    """
    g = stats.gradient
    denom = stats.hessian_diag() + l2_weight
    valid = denom > 0.0
    if fixed_label is not None:
        candidate_mask = np.zeros(stats.n_labels, dtype=bool)
        candidate_mask[fixed_label] = True
    else:
        candidate_mask = np.ones(stats.n_labels, dtype=bool)
    usable = candidate_mask & valid
    if not usable.any():
        raise SolverError("no candidate label has h_kk + lambda > 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(usable, -g / denom, 0.0)
    objectives = g * p + 0.5 * denom * p * p
    objectives = np.where(usable, objectives, np.inf)
    label = int(np.argmin(objectives))
    scores = np.zeros(stats.n_labels)
    scores[label] = p[label]
    return Head(scores, label)


def objective_value(stats: AggregatedStats, head: Head, l2_weight: float) -> float:
    """Quadratic model of the training objective for a candidate head."""
    p = head.scores
    quad = p @ (stats.hessian * p) if stats.diagonal else p @ stats.hessian @ p
    return float(stats.gradient @ p + 0.5 * quad + 0.5 * l2_weight * (p @ p))


def find_head(
    stats: AggregatedStats,
    l2_weight: float,
    head_mode: str,
    fixed_label: int | None = None,
) -> Head:
    """Dispatch to the single-label or full-head solver."""
    if head_mode == HEAD_SINGLE:
        return solve_single_label_head(stats, l2_weight, fixed_label)
    if head_mode == HEAD_MULTI:
        return solve_full_head(stats, l2_weight)
    raise ValueError(f"unknown head mode {head_mode!r}")
