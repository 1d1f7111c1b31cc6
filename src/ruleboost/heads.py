"""Loss-minimizing head computation from aggregated derivative statistics.

For a candidate body, the gradients and Hessians of the covered examples
are summed into one vector g and one symmetric matrix H.  The optimal
full head solves (H + diag(lambda)) p = -g; with a diagonal H this is the
per-label closed form p_k = -g_k / (h_kk + lambda).  Single-label heads
use the diagonal closed form per candidate label and keep the label whose
quadratic objective is smallest, which is valid for non-decomposable
losses too because all other head entries are zero.

One batched solver, ``solve_heads``, scores every candidate of a
refinement step; a single head (``find_head``) is a batch of one.  Dense
systems are solved by LU factorization, and a candidate whose system is
singular or whose objective is not finite scores +inf.
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
    return stats_for_rows(store, rows)


def solve_heads(gradients, hessians, diagonal: bool, l2_weight: float,
                head_mode: str, fixed_label: int | None = None):
    """Optimal head of every candidate: objectives, head scores and labels.

    ``gradients`` is (c, l); ``hessians`` is (c, l) when ``diagonal`` and
    (c, l, l) otherwise.  Returns the (c,) objectives, the (c, l) head
    scores and, for single-label heads, the (c,) chosen labels (None for
    full heads).  ``fixed_label`` restricts single-label heads to one label
    once a rule is committed to it; otherwise ties go to the lowest label.
    A candidate without a usable head has objective +inf.
    """
    g = gradients
    n_candidates, n_labels = g.shape[0], g.shape[1]
    if head_mode == HEAD_SINGLE:
        if diagonal:
            h_diag = hessians
        else:
            idx = np.arange(n_labels)
            h_diag = hessians[:, idx, idx]
        denom = h_diag + l2_weight
        usable = denom > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(usable, -g / denom, 0.0)
        per_label = np.where(usable, g * p + 0.5 * denom * p * p, np.inf)
        if fixed_label is None:
            labels = np.argmin(per_label, axis=1)
        else:
            labels = np.full(n_candidates, fixed_label)
        rows = np.arange(n_candidates)
        objectives = per_label[rows, labels]
        scores = np.zeros_like(g)
        scores[rows, labels] = p[rows, labels]
        return objectives, scores, labels
    if head_mode != HEAD_MULTI:
        raise ValueError(f"unknown head mode {head_mode!r}")
    if diagonal:
        denom = hessians + l2_weight
        usable = (denom > 0.0).all(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(denom > 0.0, -g / denom, 0.0)
        objectives = (g * p + 0.5 * denom * p * p).sum(axis=1)
        objectives = np.where(usable, objectives, np.inf)
        return objectives, p, None
    system = hessians + l2_weight * np.eye(n_labels)
    singular = np.zeros(n_candidates, dtype=bool)
    try:
        p = np.linalg.solve(system, -g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        p = np.zeros_like(g)
        for i in range(n_candidates):
            try:
                p[i] = np.linalg.solve(system[i], -g[i])
            except np.linalg.LinAlgError:
                singular[i] = True
    with np.errstate(over="ignore", invalid="ignore"):
        objectives = (
            (g * p).sum(axis=1)
            + 0.5 * np.einsum("ck,ckj,cj->c", p, hessians, p)
            + 0.5 * l2_weight * (p * p).sum(axis=1)
        )
    # A nearly singular system (possible at l2_weight = 0) can solve without
    # raising yet give a head so large that its objective overflows; such a
    # candidate is as unusable as a singular one.
    objectives[singular | ~np.isfinite(objectives)] = np.inf
    return objectives, p, None


def find_head(
    stats: AggregatedStats,
    l2_weight: float,
    head_mode: str,
    fixed_label: int | None = None,
) -> Head:
    """Optimal head of one set of statistics, solved as a batch of one."""
    objectives, scores, labels = solve_heads(
        stats.gradient[None], stats.hessian[None], stats.diagonal, l2_weight,
        head_mode, fixed_label,
    )
    if not np.isfinite(objectives[0]):
        raise SolverError(
            f"no usable {head_mode} head: the system is singular or its "
            "objective is not finite; increase the L2 weight"
        )
    return Head(scores[0], None if labels is None else int(labels[0]))


def solve_full_head(stats: AggregatedStats, l2_weight: float) -> Head:
    """Head over all labels minimizing g.p + p'Hp/2 + l2 |p|^2 / 2."""
    return find_head(stats, l2_weight, HEAD_MULTI)


def objective_value(stats: AggregatedStats, head: Head, l2_weight: float) -> float:
    """Quadratic model of the training objective for a candidate head."""
    p = head.scores
    quad = p @ (stats.hessian * p) if stats.diagonal else p @ stats.hessian @ p
    return float(stats.gradient @ p + 0.5 * quad + 0.5 * l2_weight * (p @ p))
