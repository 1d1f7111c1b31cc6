"""Loss-minimizing head computation from aggregated derivative statistics.

For a candidate body, the gradients and Hessians of the covered examples
are summed into one vector g and one symmetric matrix H.  The optimal
full head solves (H + diag(lambda)) p = -g; with a diagonal H this is the
per-label closed form p_k = -g_k / (h_kk + lambda).  Single-label heads
use the diagonal closed form per candidate label and keep the label whose
quadratic objective is smallest, which is valid for non-decomposable
losses too because all other head entries are zero.

Refinement needs every candidate's objective but only the winner's head,
so scoring and solving are separate.  ``solve_heads`` computes heads, by
the closed form or LU, for the winning candidate and the full-data head;
a single head (``find_head``) is a batch of one.  ``score_heads`` returns
only each candidate's optimal objective (and the label of single-label
heads).  Diagonal statistics and single-label heads (on the diagonal,
packed or not) are scored by the closed form that ``solve_heads`` uses,
so both give the same objectives; dense all-label candidates are scored
as -g'(H + lambda I)^-1 g / 2 by a vectorized Cholesky factorization over
packed upper triangles, which forms no head.  A candidate whose system is
singular or whose objective is not finite scores +inf on both paths.

Statistics are the store's ``row_sums``: sums of rows of its derivative
table (gradients, then the Hessian diagonal or the packed upper triangle
whose layout ``losses`` defines); a dense Hessian is unpacked only once
summed, for ``find_head``.  The store's workspace
holds the rows that its ``gather`` copies and the Cholesky scorer's
working array, so a training run allocates them once, not at every scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .choices import HEAD_MODES, HEAD_MULTI, HEAD_SINGLE
from .dataset import Dataset
from .errors import SolverError
from .losses import GradHessStore, ScanWorkspace, packed_diagonal, packed_indices, unpack_hessians
from .rules import Body, Head, body_mask

# A Cholesky pivot below this fraction of its diagonal entry marks a
# nearly singular system; such a candidate is scored by LU instead, whose
# overflow rule then decides whether it is usable.
_PIVOT_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


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

    @classmethod
    def from_sums(cls, sums: np.ndarray, n_labels: int, diagonal: bool, count: int):
        """The statistics of a summed table row: l gradients, then the Hessian part.

        A packed dense Hessian is unpacked into its (l, l) matrix.
        """
        gradient, hessian = sums[:n_labels], sums[n_labels:]
        if not diagonal:
            hessian = unpack_hessians(hessian[None], n_labels)[0]
        return cls(gradient, hessian, diagonal, int(count))


def stats_for_rows(store: GradHessStore, rows) -> AggregatedStats:
    """Sum the store over valid row indices (repeated indices count repeatedly)."""
    return AggregatedStats.from_sums(store.row_sums(rows), store.n_labels, store.diagonal,
                                     len(rows))


def aggregate_stats(store: GradHessStore, body: Body, dataset: Dataset) -> AggregatedStats:
    """Sum gradients/Hessians of the examples covered by a body, each once."""
    return stats_for_rows(store, np.flatnonzero(body_mask(dataset, body)))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _bordered_layout(n_labels: int):
    """Packed upper-triangle layout of the bordered (l+1) x (l+1) matrix [[H, g], [g', 0]].

    Returns the start of every row (plus the total size), the positions of
    H's packed entries, of g and of H's diagonal.
    """
    sizes = np.arange(n_labels + 1, 0, -1)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    rows, columns = packed_indices(n_labels)
    hessian_positions = starts[rows] + columns - rows
    gradient_positions = starts[:n_labels] + n_labels - np.arange(n_labels)
    return (starts.tolist(),) + _read_only(hessian_positions, gradient_positions,
                                           starts[:n_labels])


def _cholesky_objectives(gradients: np.ndarray, packed: np.ndarray, l2_weight: float, *,
                         workspace: ScanWorkspace):
    """-g'(H + l2 I)^-1 g / 2 per candidate, and where a pivot was too small to trust.

    Factors the bordered matrix [[H + l2 I, g], [g', 0]] right-looking,
    one pivot at a time over all candidates at once, with the candidate
    axis last.  After the l pivots of H its corner holds -|L^-1 g|^2, the
    Schur complement -g'(H + l2 I)^-1 g, so no head is ever formed.  The
    matrix, the pivot limits and the rows of the factor live in one
    working array, the workspace's ``"cholesky"`` buffer.
    """
    n_candidates, n_labels = gradients.shape
    starts, hessian_positions, gradient_positions, diagonal_positions = _bordered_layout(n_labels)
    size = starts[-1]
    work = workspace.array("cholesky", (size + 3 * n_labels + 1, n_candidates))
    a = work[:size]
    limits = work[size : size + n_labels]
    factor = work[size + n_labels : size + 2 * n_labels]
    product = work[size + 2 * n_labels : size + 3 * n_labels]
    root = work[size + 3 * n_labels :]
    a[hessian_positions] = packed.T
    a[gradient_positions] = gradients.T
    a[-1] = 0.0
    for k, position in enumerate(diagonal_positions):
        a[position] += l2_weight
        np.multiply(_PIVOT_TOLERANCE, a[position], out=limits[k])
    weak = np.zeros(n_candidates, dtype=bool)
    strong = np.empty(n_candidates, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n_labels):
            pivot = a[starts[k]]
            np.greater(pivot, limits[k], out=strong)
            weak |= ~strong
            # Row k of the factor beyond its diagonal, border entry included.
            length = n_labels - k
            np.sqrt(pivot, out=root[0])
            np.divide(a[starts[k] + 1 : starts[k + 1]], root, out=factor[:length])
            for i in range(length):
                np.multiply(factor[i], factor[i:length], out=product[: length - i])
                a[starts[k + 1 + i] : starts[k + 2 + i]] -= product[: length - i]
    return 0.5 * a[-1], weak


def _closed_form_heads(g, h_diag, l2_weight, head_mode, fixed_label):
    """Objectives, per-label head entries and labels of diagonal statistics.

    Each label's entry is p_k = -g_k / (h_kk + lambda), whose objective
    g_k p_k + (h_kk + lambda) p_k^2 / 2 equals g_k p_k / 2; a label with
    h_kk + lambda <= 0 has no head and objective +inf.  Full heads sum the
    labels; single-label heads take the smallest objective, the lowest
    label on ties, unless ``fixed_label`` is given.
    """
    denom = h_diag + l2_weight
    usable = denom > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(usable, -g / denom, 0.0)
    per_label = np.where(usable, 0.5 * g * p, np.inf)
    if head_mode == HEAD_MULTI:
        return per_label.sum(axis=1), p, None
    if fixed_label is None:
        labels = np.argmin(per_label, axis=1)
    else:
        labels = np.full(g.shape[0], fixed_label)
    return per_label[np.arange(g.shape[0]), labels], p, labels


def score_heads(gradients, hessians, diagonal: bool, l2_weight: float,
                head_mode: str, fixed_label: int | None = None, *, workspace: ScanWorkspace):
    """Optimal objective of every candidate, without forming its head.

    ``gradients`` is (c, l); ``hessians`` is (c, l) when ``diagonal`` and
    the (c, l(l+1)/2) packed upper triangles (``packed_indices``)
    otherwise.  Returns the (c,) objectives and, for single-label heads,
    the (c,) chosen labels (None for full heads), as ``solve_heads`` does.
    Single-label heads read only the Hessian diagonal: the statistics'
    own, or the packed triangles' diagonal columns.  Packed all-label
    objectives are -g'(H + lambda I)^-1 g / 2, by Cholesky in
    ``workspace``; a candidate with a pivot too small to trust is scored by
    ``solve_heads``.  A candidate without a usable head scores +inf.
    """
    g = gradients
    if head_mode not in HEAD_MODES:
        raise ValueError(f"unknown head mode {head_mode!r}")
    if diagonal or head_mode == HEAD_SINGLE:
        h_diag = hessians if diagonal else hessians[:, packed_diagonal(g.shape[1])]
        objectives, _, labels = _closed_form_heads(g, h_diag, l2_weight, head_mode, fixed_label)
        return objectives, labels
    objectives, weak = _cholesky_objectives(g, hessians, l2_weight, workspace=workspace)
    if weak.any():
        fallback, _, _ = solve_heads(
            g[weak], unpack_hessians(hessians[weak], g.shape[1]), False, l2_weight, HEAD_MULTI
        )
        objectives[weak] = fallback
    return objectives, None


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
    if head_mode not in HEAD_MODES:
        raise ValueError(f"unknown head mode {head_mode!r}")
    if diagonal or head_mode == HEAD_SINGLE:
        h_diag = hessians if diagonal else hessians.diagonal(axis1=1, axis2=2)
        objectives, p, labels = _closed_form_heads(g, h_diag, l2_weight, head_mode, fixed_label)
        if labels is None:
            return objectives, p, None
        rows = np.arange(n_candidates)
        scores = np.zeros_like(g)
        scores[rows, labels] = p[rows, labels]
        return objectives, scores, labels
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
